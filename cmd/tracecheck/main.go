// Command tracecheck validates trace files produced with -trace: it
// parses each file as a Chrome trace_event document, checks its
// structure (trace.Check) and reports the event count and time span,
// exiting non-zero on malformed input. CI's trace-smoke target runs it
// over a freshly captured fault trace.
//
// Usage:
//
//	tracecheck file.trace.json [more.trace.json ...]
package main

import (
	"fmt"
	"log"
	"os"

	"vivo/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		log.Fatal("usage: tracecheck file.trace.json [...]")
	}
	for _, path := range os.Args[1:] {
		f, err := os.Open(path)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		evs, err := trace.ParseJSON(f)
		f.Close()
		if err == nil {
			err = trace.Check(evs)
		}
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		var n int
		var last float64
		for _, e := range evs {
			if !e.Meta() {
				n++
				last = e.TS
			}
		}
		fmt.Printf("%s: ok — %d events spanning %.3f ms\n", path, n, last/1000)
	}
}

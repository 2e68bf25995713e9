package chaos

import (
	"time"

	"vivo/internal/faults"
)

// Shrink minimizes a failing schedule by delta debugging. test must
// return true when the candidate schedule still fails (re-running it
// deterministically and re-judging); Shrink never calls test on the
// input schedule itself — the caller has already established it fails.
//
// Two reduction passes run in sequence:
//
//  1. ddmin over the fault list: chunks and their complements are
//     re-tested at increasing granularity until no single fault can be
//     dropped (1-minimality). The result is a subsequence of the input.
//  2. duration halving: each remaining duration fault's Dur is repeatedly
//     halved (floored at one second) while the schedule still fails.
//
// Every candidate is cached by Schedule.Key, so determinism makes repeat
// evaluations free. The returned count is the number of actual test
// invocations (i.e. simulation re-runs).
func Shrink(s Schedule, test func(Schedule) bool) (Schedule, int) {
	evals := 0
	cache := map[string]bool{}
	check := func(fs []faults.Spec) bool {
		cand := Schedule{Faults: fs}
		k := cand.Key()
		if v, ok := cache[k]; ok {
			return v
		}
		evals++
		v := test(cand)
		cache[k] = v
		return v
	}

	cur := append([]faults.Spec(nil), s.Faults...)
	cur = ddmin(cur, check)

	// Halve durations one fault at a time, longest first effect-wise:
	// order is positional, which is deterministic and good enough.
	for i := range cur {
		for cur[i].Dur > time.Second {
			half := (cur[i].Dur / 2).Truncate(time.Second)
			if half < time.Second {
				half = time.Second
			}
			cand := append([]faults.Spec(nil), cur...)
			cand[i].Dur = half
			if !check(cand) {
				break
			}
			cur = cand
		}
	}
	return Schedule{Faults: cur}, evals
}

// ddmin is the classic Zeller/Hildebrandt minimizing delta debugger over
// the fault list. check(nil) is never attempted (an empty schedule cannot
// fail a schedule-triggered oracle, and if it could, the repro would be
// trivial anyway).
func ddmin(fs []faults.Spec, check func([]faults.Spec) bool) []faults.Spec {
	cur := fs
	n := 2
	for len(cur) >= 2 {
		reduced := false

		// Try each chunk alone: does a small subset already fail?
		for _, c := range chunks(cur, n) {
			if len(c) > 0 && len(c) < len(cur) && check(c) {
				cur, n, reduced = c, 2, true
				break
			}
		}
		if reduced {
			continue
		}

		// Try each complement: can we drop a chunk? At singleton
		// granularity (n == len(cur)) this is the drop-one-fault pass
		// that establishes 1-minimality.
		cs := chunks(cur, n)
		for i := range cs {
			comp := complement(cur, cs, i)
			if len(comp) > 0 && len(comp) < len(cur) && check(comp) {
				cur = comp
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}

		// Refine granularity, or stop at single-fault chunks.
		if n >= len(cur) {
			break
		}
		n *= 2
		if n > len(cur) {
			n = len(cur)
		}
	}
	return cur
}

// chunks splits fs into n contiguous, near-equal pieces.
func chunks(fs []faults.Spec, n int) [][]faults.Spec {
	if n > len(fs) {
		n = len(fs)
	}
	out := make([][]faults.Spec, 0, n)
	start := 0
	for i := 0; i < n; i++ {
		end := start + (len(fs)-start)/(n-i)
		out = append(out, fs[start:end])
		start = end
	}
	return out
}

// complement returns fs minus chunk i (a fresh slice).
func complement(fs []faults.Spec, cs [][]faults.Spec, i int) []faults.Spec {
	out := make([]faults.Spec, 0, len(fs)-len(cs[i]))
	for j, c := range cs {
		if j != i {
			out = append(out, c...)
		}
	}
	return out
}

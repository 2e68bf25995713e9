package trace

import (
	"fmt"
	"os"
)

// FileSink is a Sink writing a Perfetto-loadable JSON trace to a file on
// disk — the one place the os.Create / NewJSON / Close sequence lives, so
// every command and harness that writes a trace file shares the exact
// same plumbing (and the same close-ordering: the JSON trailer flushes
// before the file descriptor closes, so a successful Close means a
// complete, loadable document).
type FileSink struct {
	path string
	f    *os.File
	j    *JSON
}

// CreateFile creates (or truncates) path and returns a sink streaming a
// JSON trace into it. The caller must Close the sink after the run.
func CreateFile(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: create %s: %v", path, err)
	}
	return &FileSink{path: path, f: f, j: NewJSON(f)}, nil
}

// Record implements Sink.
func (s *FileSink) Record(e Event) { s.j.Record(e) }

// Close writes the JSON trailer, flushes, and closes the file. The first
// error encountered wins; the file is closed in every case.
func (s *FileSink) Close() error {
	werr := s.j.Close()
	cerr := s.f.Close()
	if werr != nil {
		return fmt.Errorf("trace: write %s: %v", s.path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("trace: close %s: %v", s.path, cerr)
	}
	return nil
}

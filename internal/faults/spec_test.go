package faults

import (
	"encoding/json"
	"testing"
	"time"
)

// TestSpecString pins the rendering chaos digests and repro reports are
// built from.
func TestSpecString(t *testing.T) {
	cases := []struct {
		s    Spec
		want string
	}{
		{Spec{Type: AppCrash, Target: 1, At: 30 * time.Second}, "app-crash@n1@30s"},
		{Spec{Type: LinkDown, Target: 2, At: 40 * time.Second, Dur: 10 * time.Second}, "link-down@n2@40s+10s"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.s, got, c.want)
		}
	}
}

// FuzzSpecJSON feeds arbitrary bytes to the repro-artifact decoder: each
// input either fails with an error or decodes to a spec that re-encodes
// and decodes back to the same value. The seeds are fault entries in the
// shape chaos repro artifacts carry, plus near misses.
func FuzzSpecJSON(f *testing.F) {
	for _, seed := range []string{
		`{"type":"link-down","target":1,"at":"30s","dur":"10s"}`,
		`{"type":"switch-down","target":0,"at":"30s","dur":"5s"}`,
		`{"type":"app-crash","target":0,"at":"10.3s","dur":"0s"}`,
		`{"type":"app-hang","target":3,"at":"30s","dur":"15s"}`,
		`{"type":"node-crash","target":2,"at":"50s","dur":"10s"}`,
		`{"type":"kernel-memory","target":1,"at":"15.4s","dur":"1s"}`,
		`{"type":"memory-pinning","target":2,"at":"1m2.5s","dur":"4s"}`,
		`{"type":"bad-param-ptr-offset","target":-1,"at":"-1ns","dur":"2562047h47m16.854775807s"}`,
		`{"type":"frobnicate","target":0,"at":"1s","dur":"0s"}`,
		`{"type":"link-down","target":1,"at":"soon","dur":"0s"}`,
		`{"type":"link-down","target":1e99,"at":"1s","dur":"1s"}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var s Spec
		if err := json.Unmarshal(b, &s); err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%q decoded to %+v, which does not encode: %v", b, s, err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%q decoded to %+v, whose encoding %s does not decode: %v", b, s, enc, err)
		}
		if back != s {
			t.Fatalf("%q decoded to %+v, which round-trips to %+v via %s", b, s, back, enc)
		}
	})
}

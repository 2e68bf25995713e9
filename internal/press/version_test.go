package press

import (
	"testing"

	subvia "vivo/internal/substrate/via"
)

// TestRegistryOrdinals pins the registration order of the built-in
// versions. The ordinals are load-bearing: experiment seeds derive from
// int(v) (e.g. opt.Seed*1000 + int64(v)*100 + fault), so reordering
// registrations — including by renaming the files whose variable
// initializers perform them — would silently change every published
// result. If this test fails, restore the order; never update the
// expectations.
func TestRegistryOrdinals(t *testing.T) {
	want := []struct {
		v    Version
		ord  int
		name string
	}{
		{TCPPress, 0, "TCP-PRESS"},
		{TCPPressHB, 1, "TCP-PRESS-HB"},
		{VIAPress0, 2, "VIA-PRESS-0"},
		{VIAPress3, 3, "VIA-PRESS-3"},
		{VIAPress5, 4, "VIA-PRESS-5"},
		{RobustPress, 5, "ROBUST-PRESS"},
	}
	for _, w := range want {
		if int(w.v) != w.ord {
			t.Errorf("%s registered as ordinal %d, want %d", w.name, int(w.v), w.ord)
		}
		if w.v.String() != w.name {
			t.Errorf("ordinal %d named %q, want %q", int(w.v), w.v.String(), w.name)
		}
	}
	if len(AllVersions) != 6 {
		t.Fatalf("AllVersions has %d entries, want 6", len(AllVersions))
	}
}

func TestVersionByName(t *testing.T) {
	for _, v := range AllVersions {
		got, ok := VersionByName(v.String())
		if !ok || got != v {
			t.Fatalf("VersionByName(%q) = %v, %v", v.String(), got, ok)
		}
	}
	if _, ok := VersionByName("PRESS-9000"); ok {
		t.Fatal("VersionByName accepted an unknown name")
	}
	names := VersionNames()
	if len(names) != len(AllVersions) || names[0] != "TCP-PRESS" || names[5] != "ROBUST-PRESS" {
		t.Fatalf("VersionNames() = %v", names)
	}
}

// TestSpecSelfConsistency checks that every registered spec is complete
// enough to deploy: a substrate, a calibrated cost model and a Table-1
// calibration target. UserLevel must agree with the substrate itself, so
// the kernel/user-level split is decided once.
func TestSpecSelfConsistency(t *testing.T) {
	for _, v := range AllVersions {
		spec := v.Spec()
		if spec.Substrate == nil {
			t.Errorf("%v: no substrate", v)
		}
		if _, isVIA := spec.Substrate.(subvia.Options); spec.UserLevel != isVIA {
			t.Errorf("%v: UserLevel=%v but substrate is %T", v, spec.UserLevel, spec.Substrate)
		}
		if spec.Costs == (CostModel{}) {
			t.Errorf("%v: no cost model", v)
		}
		if spec.PaperThroughput <= 0 {
			t.Errorf("%v: no calibration target", v)
		}
		if spec.ZeroCopy && !spec.UserLevel {
			t.Errorf("%v: zero-copy requires a user-level substrate", v)
		}
	}
}

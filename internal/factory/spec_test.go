package factory

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/profile"
)

func TestParseSpecGrammar(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"gshare", Spec{Name: "gshare"}},
		{"GShare:budget=16KB", Spec{Name: "gshare", BudgetBytes: 16384}},
		{"flp:budget=2048,fixed=8", Spec{Name: "flp", BudgetBytes: 2048, FixedLength: 8}},
		{"flp:budget=512B,length=3", Spec{Name: "flp", BudgetBytes: 512, FixedLength: 3}},
		{"vlp:budget=64KB,profile=gcc.prof", Spec{Name: "vlp", BudgetBytes: 65536, ProfilePath: "gcc.prof"}},
		{" path : budget = 0.5KB ", Spec{Name: "path", BudgetBytes: 512}},
		{"flp:budget=1MB", Spec{Name: "flp", BudgetBytes: 1 << 20}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseSpecOptions(t *testing.T) {
	s, err := ParseSpec("flp:budget=4KB,store-returns,no-rotation=true")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Options.StoreReturns || !s.Options.NoRotation {
		t.Errorf("options not parsed: %+v", s.Options)
	}
	s, err = ParseSpec("flp:store-returns=false")
	if err != nil {
		t.Fatal(err)
	}
	if s.Options.StoreReturns {
		t.Error("store-returns=false parsed as true")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",
		":budget=4KB",
		"gshare:budget",
		"gshare:budget=",
		"gshare:budget=lots",
		"gshare:budget=-4KB",
		"gshare:budget=0",
		"gshare:budget=1.5B",
		"flp:fixed=four",
		"flp:fixed",
		"vlp:profile=",
		"gshare:warp=9",
		"flp:store-returns=maybe",
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

func TestParseBudgetUnits(t *testing.T) {
	cases := map[string]int{
		"2048":   2048,
		"512B":   512,
		"64KB":   65536,
		"64kb":   65536,
		"0.5KB":  512,
		"1MB":    1 << 20,
		" 16KB ": 16384,
	}
	for in, want := range cases {
		got, err := ParseBudget(in)
		if err != nil {
			t.Errorf("ParseBudget(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseBudget(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"gshare:budget=16KB",
		"flp:budget=2048,fixed=8",
		"vlp:budget=64KB,profile=gcc.prof,store-returns,no-rotation",
		"bimodal",
	} {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", s.String(), in, err)
		}
		if again != s {
			t.Errorf("round trip %q -> %q -> %+v != %+v", in, s.String(), again, s)
		}
	}
	if got := (Spec{Name: "gshare", BudgetBytes: 16384}).String(); got != "gshare:budget=16KB" {
		t.Errorf("String = %q", got)
	}
}

func TestValidateErrorPaths(t *testing.T) {
	condProf := &profile.Profile{Kind: "cond", TableBits: 14, Default: 2}
	indProf := &profile.Profile{Kind: "indirect", TableBits: 9, Default: 8}
	cases := []struct {
		name  string
		spec  Spec
		class Class
		frag  string
	}{
		{"empty name", Spec{BudgetBytes: 4096}, Cond, "no scheme"},
		{"unknown cond", Spec{Name: "tage", BudgetBytes: 4096}, Cond, "unknown cond"},
		{"unknown ind", Spec{Name: "ittage", BudgetBytes: 2048}, Indirect, "unknown indirect"},
		{"cond-only scheme for indirect", Spec{Name: "gshare", BudgetBytes: 2048}, Indirect, "unknown indirect"},
		{"zero budget", Spec{Name: "gshare"}, Cond, "positive budget"},
		{"negative budget", Spec{Name: "gshare", BudgetBytes: -1}, Cond, "positive budget"},
		{"fixed too deep", Spec{Name: "flp", BudgetBytes: 4096, FixedLength: 33}, Cond, "out of range"},
		{"vlp no profile", Spec{Name: "vlp", BudgetBytes: 4096}, Cond, "needs a profile"},
		{"vlp wrong kind", Spec{Name: "vlp", BudgetBytes: 4096, Profile: indProf}, Cond, "want cond"},
		{"vlp wrong kind ind", Spec{Name: "vlp", BudgetBytes: 2048, Profile: condProf}, Indirect, "want indirect"},
	}
	for _, c := range cases {
		err := c.spec.Validate(c.class)
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.frag)
		}
	}
	if err := (Spec{Name: "VLP", BudgetBytes: 4096, Profile: condProf}).Validate(Cond); err != nil {
		t.Errorf("valid mixed-case vlp spec rejected: %v", err)
	}
}

func TestSpecBuildsFromProfilePath(t *testing.T) {
	prof := &profile.Profile{Kind: "cond", TableBits: 14,
		Lengths: map[arch.Addr]int{0x1004: 3}, Default: 2}
	path := filepath.Join(t.TempDir(), "gcc.prof")
	if err := prof.Save(path); err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec("vlp:budget=64KB,profile=" + path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Cond()
	if err != nil {
		t.Fatal(err)
	}
	if p.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d", p.SizeBytes())
	}
	// The same path must fail for the indirect class: wrong profile kind.
	if _, err := s.Indirect(); err == nil {
		t.Error("cond profile accepted for indirect build")
	}
}

func TestSpecBuildMissingProfileFile(t *testing.T) {
	s := Spec{Name: "vlp", BudgetBytes: 4096, ProfilePath: "/no/such.prof"}
	if _, err := s.Cond(); err == nil {
		t.Error("missing profile file accepted")
	}
}

func TestSpecBuildNonPowerOfTwoBudget(t *testing.T) {
	s, err := ParseSpec("gshare:budget=3000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cond(); err == nil {
		t.Error("non-power-of-two budget accepted at build time")
	}
}

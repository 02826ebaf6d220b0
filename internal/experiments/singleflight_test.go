package experiments

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// TestSingleflightStep1AndProfile hammers the suite's memoised artifacts
// from many goroutines asking for the same keys and requires each
// artifact to be computed exactly once: the flight cells must serialise
// concurrent first requests, not just deduplicate sequential ones. Run
// under -race this also checks the caches for data races.
func TestSingleflightStep1AndProfile(t *testing.T) {
	s := NewSuite(Config{BaseRecords: 4000})
	const name = "gcc"
	const hammer = 16

	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	record := func(err error) {
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	}
	for i := 0; i < hammer; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, err := s.ProfileSource(name)
			record(err)
		}()
		go func() {
			defer wg.Done()
			_, err := s.Step1(name, false, 10)
			record(err)
		}()
		go func() {
			defer wg.Done()
			_, err := s.Profile(name, false, 10)
			record(err)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}

	// One profile-input generation, one step-1 sweep, one two-step
	// profile — however many goroutines raced for them.
	records, step1, profiles := s.ComputeCounts()
	if records != 1 {
		t.Errorf("trace generations = %d, want 1", records)
	}
	if step1 != 1 {
		t.Errorf("step-1 sweeps = %d, want 1", step1)
	}
	if profiles != 1 {
		t.Errorf("two-step profiles = %d, want 1", profiles)
	}

	// Distinct keys still compute separately.
	if _, err := s.Step1(name, true, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.input(name, false); err != nil {
		t.Fatal(err)
	}
	records, step1, _ = s.ComputeCounts()
	if records != 2 || step1 != 2 {
		t.Errorf("after distinct keys: records = %d, step1 = %d, want 2/2", records, step1)
	}
}

// TestSingleflightSharesResultPointer: latecomers must receive the very
// artifact the winning computation produced, not a recomputed copy.
func TestSingleflightSharesResultPointer(t *testing.T) {
	s := NewSuite(Config{BaseRecords: 3000})
	const name = "go"
	const hammer = 8
	profiles := make([]interface{}, hammer)
	var wg sync.WaitGroup
	for i := 0; i < hammer; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := s.Profile(name, false, 9)
			if err != nil {
				t.Error(err)
				return
			}
			profiles[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < hammer; i++ {
		if profiles[i] != profiles[0] {
			t.Fatalf("goroutine %d received a different *Profile than goroutine 0", i)
		}
	}
}

// TestSingleflightPrimedRecordsSkipGeneration: ingested test traces are
// installed as already-resolved flights, so TestSource never generates.
func TestSingleflightPrimedRecordsSkipGeneration(t *testing.T) {
	s := NewSuite(Config{BaseRecords: 3000})
	const name = "perl"
	primed := []trace.Record{{PC: 0x1004}}
	s.primeTestRecords(name, primed)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, err := s.input(name, false)
			if err != nil {
				t.Error(err)
				return
			}
			if recs := in.Records; len(recs) != 1 || recs[0].PC != 0x1004 {
				t.Error("primed records not served")
			}
		}()
	}
	wg.Wait()
	if records, _, _ := s.ComputeCounts(); records != 0 {
		t.Errorf("trace generations = %d, want 0 for a primed benchmark", records)
	}
}

// TestSingleflightStep1SharedByProfiles: every two-step profile of one
// profile input at one k starts from the suite's memoized step 1, so
// 16 goroutines racing for the step 1, the default profile and all four
// ablation-heuristic variants run step 1 once and each distinct profile
// once (the 3-candidate/7-iteration variant is the default profile).
func TestSingleflightStep1SharedByProfiles(t *testing.T) {
	s := NewSuite(Config{BaseRecords: 4000})
	const name = "gcc"
	k := condK(abBudget)
	heuristic, err := s.ColumnCell(context.Background(),
		engine.Key{Class: engine.ClassCond, Trace: name, ColumnID: "ablation-heuristic"})
	if err != nil {
		t.Fatal(err)
	}
	const hammer = 16

	var wg sync.WaitGroup
	errs := make(chan error, hammer*(2+len(heuristic.Cond)))
	for i := 0; i < hammer; i++ {
		wg.Add(2 + len(heuristic.Cond))
		go func() {
			defer wg.Done()
			_, err := s.Step1(name, false, k)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := s.Profile(name, false, k)
			errs <- err
		}()
		for _, mk := range heuristic.Cond {
			go func() {
				defer wg.Done()
				_, err := mk()
				errs <- err
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	records, step1, profiles := s.ComputeCounts()
	if records != 1 {
		t.Errorf("trace generations = %d, want 1", records)
	}
	if step1 != 1 {
		t.Errorf("step-1 sweeps = %d, want 1 shared by every profile", step1)
	}
	if profiles != 4 {
		t.Errorf("two-step profiles = %d, want 4 (default, 1/1, 3/3, 5/7)", profiles)
	}
}

// TestProfileMemoHitAllocatesNothing: looking up a cached default
// profile or step 1 resolves and keys the default candidate set
// without allocating, and every spelling of a candidate set keys apart
// from every other set.
func TestProfileMemoHitAllocatesNothing(t *testing.T) {
	s := NewSuite(Config{BaseRecords: 2000})
	const name = "gcc"
	if _, err := s.Profile(name, false, 10); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Profile(name, false, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step1(name, false, 10); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a default profile and step-1 memo hit allocate %v times, want 0", n)
	}
	all := make([]int, 32)
	for i := range all {
		all[i] = i + 1
	}
	keys := map[string][]int{}
	shifted := append(slices.Clone(all[1:]), 33) // 2..33, as long as the default
	for _, ls := range [][]int{nil, all, all[:31], all[1:], shifted, {1, 2, 4, 8, 16, 32}, {12}, {1, 2}} {
		key := step1Key(name, false, resolve(profile.Config{TableBits: 10, Lengths: ls})).lengths
		if prev, ok := keys[key]; ok && !slices.Equal(prev, resolve(profile.Config{Lengths: ls}).Lengths) {
			t.Errorf("candidate sets %v and %v share key %q", prev, ls, key)
		}
		keys[key] = resolve(profile.Config{Lengths: ls}).Lengths
	}
	if len(keys) != 7 {
		t.Errorf("%d distinct keys for 7 distinct candidate sets (nil and 1..32 are one set)", len(keys))
	}
}

// TestColumnCellsDoNotReprofile: the grid cells whose constructors
// profile (ablation-subset, ablation-heuristic, ablation-adaptivity)
// take every profile from the suite's caches, so rebuilding the cells
// and running every constructor again profiles nothing: no branch is
// simulated and no artifact is computed.
func TestColumnCellsDoNotReprofile(t *testing.T) {
	s := NewSuite(Config{BaseRecords: 2000})
	ids := []string{"ablation-subset", "ablation-heuristic", "ablation-adaptivity"}
	round := func() {
		for _, id := range ids {
			cell, err := s.ColumnCell(context.Background(),
				engine.Key{Class: engine.ClassCond, Trace: "gcc", ColumnID: id})
			if err != nil {
				t.Fatal(err)
			}
			for v, mk := range cell.Cond {
				if _, err := mk(); err != nil {
					t.Fatalf("%s variant %d: %v", id, v, err)
				}
			}
		}
	}
	round()
	branches := obs.BranchTotal()
	records, step1, profiles := s.ComputeCounts()
	round()
	if d := obs.BranchTotal() - branches; d != 0 {
		t.Errorf("second round simulated %d branches, want 0", d)
	}
	r2, s2, p2 := s.ComputeCounts()
	if r2 != records || s2 != step1 || p2 != profiles {
		t.Errorf("second round computed %d traces, %d step-1 sweeps, %d profiles; want none",
			r2-records, s2-step1, p2-profiles)
	}
}

package experiments

import (
	"context"
	"testing"

	"repro/internal/engine/pool"
)

// TestAblationPathInfoConcurrentWorkers runs the path-information
// ablation with two pool workers analysing benchmarks at once, so under
// -race any result field written by more than one worker is reported.
// The suite is tiny and the experiment repeats over its cached traces:
// short jobs put the workers' writes close together, where the race
// detector reliably sees them.
func TestAblationPathInfoConcurrentWorkers(t *testing.T) {
	pool.SetCap(2)
	t.Cleanup(func() { pool.SetCap(0) })
	s := NewSuite(Config{BaseRecords: 2000})
	for run := 0; run < 5; run++ {
		rep, err := s.AblationPathInfo(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res := rep.Data.(*PathInfoResult)
		if len(res.Depths) == 0 || len(res.Weight) != len(res.Benchmarks) {
			t.Fatalf("result shape: %d depths, %d weight rows for %d benchmarks",
				len(res.Depths), len(res.Weight), len(res.Benchmarks))
		}
		for b, row := range res.Weight {
			if len(row) != len(res.Depths) || len(res.MeanAcc[b]) != len(res.Depths) {
				t.Errorf("%s: %d weights and %d accuracies for %d depths",
					res.Benchmarks[b], len(row), len(res.MeanAcc[b]), len(res.Depths))
			}
		}
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tinyConfig shrinks every workload so a full run takes a second or so.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 1
	cfg.trace = trace
	cfg.seconds = 0.01
	cfg.setups = 2
	cfg.workdir = t.TempDir()
	// No digests are recorded at this base; the other gates still run.
	cfg.base, cfg.checkDigests = 2000, false
	cfg.serveBase, cfg.serveProfBase, cfg.chunk = 16384, 4096, 2048
	return cfg
}

// TestSmokeEveryMetric runs every workload, timed and traced, at a tiny
// scale and checks that each run is correct and emits exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readBenchmarkJSON(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, report, err := run(tinyConfig(t, w.Name, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if res["correct"] != true || res["failed"] != 0 || res["attempted"].(int) < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%v failed=%v wrong=%v", w.Name, traced,
					res["correct"], res["attempted"], res["failed"], report["wrong"])
			}
			got := res["metrics"].(map[string]metric)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, traced, m.Name, g.Unit, m.Unit)
				case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, traced, m.Name, g.Value)
				case !traced && g.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, g.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", w.Name, traced, err)
			}
		}
	}
}

// TestRefusesBaseWithoutDigests checks that a run whose base has no
// recorded digests fails instead of skipping its digest checks.
func TestRefusesBaseWithoutDigests(t *testing.T) {
	cfg := tinyConfig(t, "paper-suite", false)
	cfg.checkDigests = true
	if _, _, err := run(cfg); err == nil {
		t.Fatalf("run at base %d with digest checks on succeeded; digests exist only at %d", cfg.base, digestBase)
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

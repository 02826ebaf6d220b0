package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/bpred"
	"repro/internal/engine"
	"repro/internal/engine/pool"
	"repro/internal/experiments"
	"repro/internal/reuse"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recorded holds the benchmark's recorded digests, parsed out of
// perfbench/digests.go so the values live in one place: base, the scale
// they were taken at (digestBase); suite, each registry experiment's
// rendered-text sha256 (suiteDigests); grid, the replay-grid rates
// digest by seed (gridDigests).
type recorded struct {
	base  int
	suite map[string]string
	grid  map[uint64]string
}

// recordedDigests parses perfbench/digests.go.
func recordedDigests(t *testing.T) recorded {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "perfbench/digests.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// entries returns the literal key and value of every element of a
	// map literal.
	entries := func(name string, e ast.Expr) [][2]string {
		cl, ok := e.(*ast.CompositeLit)
		if !ok {
			t.Fatalf("%s is not a map literal", name)
		}
		var out [][2]string
		for _, elt := range cl.Elts {
			kv := elt.(*ast.KeyValueExpr)
			k, ok1 := kv.Key.(*ast.BasicLit)
			v, ok2 := kv.Value.(*ast.BasicLit)
			if !ok1 || !ok2 {
				t.Fatalf("%s entry %v is not a literal pair", name, kv.Key)
			}
			out = append(out, [2]string{k.Value, v.Value})
		}
		return out
	}
	r := recorded{suite: map[string]string{}, grid: map[uint64]string{}}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Names) != 1 || len(vs.Values) != 1 {
				continue
			}
			switch name := vs.Names[0].Name; name {
			case "digestBase":
				lit, ok := vs.Values[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.INT {
					t.Fatalf("digestBase is not an integer literal")
				}
				if r.base, err = strconv.Atoi(lit.Value); err != nil {
					t.Fatal(err)
				}
			case "suiteDigests":
				for _, kv := range entries(name, vs.Values[0]) {
					k, err1 := strconv.Unquote(kv[0])
					v, err2 := strconv.Unquote(kv[1])
					if err1 != nil || err2 != nil {
						t.Fatalf("suiteDigests entry %s: %v %v", kv[0], err1, err2)
					}
					r.suite[k] = v
				}
			case "gridDigests":
				for _, kv := range entries(name, vs.Values[0]) {
					k, err1 := strconv.ParseUint(kv[0], 10, 64)
					v, err2 := strconv.Unquote(kv[1])
					if err1 != nil || err2 != nil {
						t.Fatalf("gridDigests entry %s: %v %v", kv[0], err1, err2)
					}
					r.grid[k] = v
				}
			}
		}
	}
	if r.base == 0 || len(r.suite) == 0 || len(r.grid) == 0 {
		t.Fatalf("perfbench/digests.go: digestBase %d, %d suite digests, %d grid digests",
			r.base, len(r.suite), len(r.grid))
	}
	return r
}

// TestSuiteDigests renders every registry experiment cold, on one fresh
// Suite at the recorded base scale, and checks each text's sha256
// against the benchmark's recorded digest: the rendered artifacts stay
// byte-identical. The whole registry renders three times: at the host's
// worker count, then at one and at three workers with every shared
// reuse pool filled with garbage first, so the texts depend neither on
// the order experiments' jobs run in nor on what a table held before.
// ablation-speedup, which reads the Figures 5-8 columns, and
// ablation-pathinfo, which reads the memoized test inputs, also render
// each alone on a fresh Suite, where nothing is memoized yet.
func TestSuiteDigests(t *testing.T) {
	rec := recordedDigests(t)
	base, want := rec.base, rec.suite
	reg := experiments.Registry()
	if len(reg) != len(want) {
		t.Errorf("%d registry experiments, %d recorded digests", len(reg), len(want))
	}
	render := func(pass string, s *experiments.Suite, e experiments.Entry) {
		t.Helper()
		rep, err := e.Run(s, context.Background())
		if err != nil {
			t.Fatalf("%s: %s: %v", pass, e.ID, err)
		}
		sum := sha256.Sum256([]byte(rep.Text))
		if got := hex.EncodeToString(sum[:]); got != want[e.ID] {
			t.Errorf("%s: %s: rendered text sha256 %s, recorded %q", pass, e.ID, got, want[e.ID])
		}
	}
	all := func(pass string) {
		t.Helper()
		s := experiments.NewSuite(experiments.Config{BaseRecords: base})
		for _, e := range reg {
			render(pass, s, e)
		}
	}
	all("host workers")
	for _, id := range []string{"ablation-speedup", "ablation-pathinfo"} {
		e, err := experiments.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		render("alone", experiments.NewSuite(experiments.Config{BaseRecords: base}), e)
	}
	defer pool.SetCap(pool.Cap())
	for _, workers := range []int{1, 3} {
		pool.SetCap(workers)
		poisonPools()
		all(fmt.Sprintf("%d workers, poisoned pools", workers))
	}
}

// gridFixture is what the benchmark's replay-grid workload replays: the
// deduplicated union of every registry experiment's GridKeys, each
// built as a cell on one Suite (which profiles on its own profile
// inputs), over held-out test traces.
type gridFixture struct {
	keys   []engine.Key
	cells  []engine.Cell
	traces map[string][]trace.Record
}

// newGridFixture builds the grid at the base scale, with test traces
// from the given input of each benchmark, and builds every predictor
// once so the profiles the cells need are computed before any replay.
func newGridFixture(tb testing.TB, base int, input uint64) *gridFixture {
	tb.Helper()
	ctx := context.Background()
	g := &gridFixture{traces: map[string][]trace.Record{}}
	seen := map[engine.Key]bool{}
	for _, e := range experiments.Registry() {
		for _, k := range experiments.GridKeys(e.ID) {
			if !seen[k] {
				seen[k] = true
				g.keys = append(g.keys, k)
			}
		}
	}
	s := experiments.NewSuite(experiments.Config{BaseRecords: base})
	for _, k := range g.keys {
		if _, ok := g.traces[k.Trace]; !ok {
			wb, err := workload.ByName(k.Trace)
			if err != nil {
				tb.Fatal(err)
			}
			g.traces[k.Trace] = trace.Collect(wb.InputSource(base, input)).Records
		}
		c, err := s.ColumnCell(ctx, k)
		if err != nil {
			tb.Fatalf("cell %s: %v", k, err)
		}
		for _, mk := range c.Cond {
			p, err := mk()
			if err != nil {
				tb.Fatalf("cell %s: %v", k, err)
			}
			bpred.Release(p)
		}
		for _, mk := range c.Indirect {
			p, err := mk()
			if err != nil {
				tb.Fatalf("cell %s: %v", k, err)
			}
			bpred.Release(p)
		}
		g.cells = append(g.cells, c)
	}
	return g
}

// replay runs every cell as one plan on a fresh engine and returns the
// rates in key order.
func (g *gridFixture) replay(ctx context.Context) ([][]float64, error) {
	eng := engine.New(engine.Config{Source: func(name string) (trace.Source, error) {
		recs, ok := g.traces[name]
		if !ok {
			return nil, fmt.Errorf("no trace for %q", name)
		}
		return trace.NewBuffer(recs), nil
	}})
	plan := engine.NewPlan()
	for _, c := range g.cells {
		plan.Add(c)
	}
	return eng.Execute(ctx, plan)
}

// ratesDigest hashes every cell key with its rates in full precision,
// the form perfbench records as gridDigests.
func ratesDigest(keys []engine.Key, rates [][]float64) string {
	h := sha256.New()
	for i, k := range keys {
		fmt.Fprint(h, k.String())
		for _, r := range rates[i] {
			fmt.Fprint(h, " ", strconv.FormatFloat(r, 'g', -1, 64))
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGridDigests replays the replay-grid cells for seed 0 (test input
// 2) at the recorded base scale and checks the rates digest against the
// benchmark's recorded one. The engine releases every predictor after
// its cell and the next cell's predictors reuse the tables, so a table
// read before it is reset, or one still in use when released, changes
// the digest. The replay runs twice on one fixture, the second time on
// tables the first released, and then once each at one and at three
// workers, with every shared reuse pool filled with garbage first: the
// digest depends neither on how a column's jobs are spread over
// workers nor on what a table held before.
func TestGridDigests(t *testing.T) {
	rec := recordedDigests(t)
	const seed = 0
	want, ok := rec.grid[seed]
	if !ok {
		t.Fatalf("no grid digest recorded for seed %d", seed)
	}
	g := newGridFixture(t, rec.base, 2+seed)
	if len(g.keys) != 80 {
		t.Errorf("%d grid cells, want 80", len(g.keys))
	}
	check := func(pass string) {
		t.Helper()
		rates, err := g.replay(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := ratesDigest(g.keys, rates); got != want {
			t.Errorf("%s: replay-grid rates digest %s, recorded %s", pass, got, want)
		}
	}
	check("pass 0")
	check("pass 1")
	defer pool.SetCap(pool.Cap())
	for _, workers := range []int{1, 3} {
		pool.SetCap(workers)
		poisonPools()
		check(fmt.Sprintf("%d workers, poisoned pools", workers))
	}
}

// poisonPools files a slice full of all-ones garbage in every size
// class a replay-grid table reaches, in each of the shared reuse pools,
// so the next Get of each class hands out garbage: an entry read before
// it is written changes the rates.
func poisonPools() {
	for c := 0; c <= 20; c++ {
		poison(&reuse.Uint8, 0xFF, c)
	}
	for c := 0; c <= 18; c++ {
		poison(&reuse.Uint32, ^uint32(0), c)
		poison(&reuse.Uint64, ^uint64(0), c)
		poison(&reuse.Int64, -1, c)
	}
}

func poison[T any](p *reuse.Pool[T], fill T, class int) {
	s := make([]T, 1<<class)
	for i := range s {
		s[i] = fill
	}
	p.Put(s)
}

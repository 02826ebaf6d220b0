// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic benchmark suite, plus the ablation
// studies listed in DESIGN.md §5.
//
// Each experiment is a function from a Suite — which caches generated
// traces, step-1 length sweeps, and two-step profiles so experiments can
// share them — to a Report holding both the typed data and a rendered
// text table or chart. The Registry (registry.go) indexes the experiments
// by the paper artifact they reproduce.
package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bpred"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CondSizesKB are the predictor-table sizes of the paper's conditional
// sweep (Figure 9 / Table 2): 1 KB to 256 KB.
var CondSizesKB = []int{1, 4, 16, 64, 256}

// IndSizesBytes are the indirect sweep sizes (Figure 10 / Table 2) in
// bytes: 0.5, 2, 8, 32 KB.
var IndSizesBytes = []int{512, 2048, 8192, 32768}

// Config sets the scale of the reproduction.
type Config struct {
	// BaseRecords is the suite base trace length; each benchmark runs
	// its DynWeight multiple of it (Table 1's dynamic-count spread).
	// 0 means 250000. The paper runs benchmarks to completion (tens of
	// millions of branches); this reproduction defaults to a laptop-
	// friendly scale and keeps the knob for full runs.
	BaseRecords int
	// ProfileRecords is the profile input length; 0 means BaseRecords.
	ProfileRecords int
	// TraceDir, when set, names a directory of recorded test-input
	// traces (<benchmark>.vlpt, optionally .vlpt.gz) to replay instead
	// of generating test traces in process. IngestTraces validates and
	// loads them up front; benchmarks whose trace is missing or corrupt
	// are skipped with a recorded reason rather than failing the suite.
	TraceDir string
	// SnapDir, when set, names a directory for column replay
	// checkpoints: memoized columns over in-memory traces whose every
	// predictor supports snapshots periodically persist that state
	// (internal/snap format), so a killed or requeued run resumes from
	// the last checkpoint instead of record zero. Results are
	// bit-identical with or without it.
	SnapDir string
}

func (c Config) base() int {
	if c.BaseRecords == 0 {
		return 250000
	}
	return c.BaseRecords
}

func (c Config) profBase() int {
	if c.ProfileRecords == 0 {
		return c.base()
	}
	return c.ProfileRecords
}

// flight is a once-guarded computation cell: the first caller runs the
// work, every concurrent or later caller blocks on (and shares) the same
// result. The suite's caches used to generate outside the lock and
// discard duplicates, so concurrent sweep cells asking for the same
// artifact could each burn a full profiling pass; with per-key flights
// the work runs exactly once.
type flight[V any] struct {
	once sync.Once
	val  V
	err  error
}

func (f *flight[V]) do(fn func() (V, error)) (V, error) {
	f.once.Do(func() { f.val, f.err = fn() })
	return f.val, f.err
}

// doneFlight returns a flight already resolved to v, for priming caches
// with externally produced artifacts (trace ingestion).
func doneFlight[V any](v V) *flight[V] {
	f := &flight[V]{}
	f.once.Do(func() { f.val = v })
	return f
}

// getFlight returns the flight cell for key, creating it under mu if this
// is the first request. The lock covers only the map access; the
// computation itself runs outside it, serialised per key by the cell.
func getFlight[K comparable, V any](mu *sync.Mutex, m map[K]*flight[V], key K) *flight[V] {
	mu.Lock()
	defer mu.Unlock()
	f, ok := m[key]
	if !ok {
		f = &flight[V]{}
		m[key] = f
	}
	return f
}

// Suite carries the configuration and memoises the expensive artifacts:
// generated traces, step-1 sweeps, and two-step profiles. Each cache is
// singleflighted: no matter how many sweep cells race for the same key,
// the artifact is computed once and latecomers block on the result.
type Suite struct {
	Cfg Config

	// eng is the suite's execution engine: every column replay — the
	// unit of grid work — is scheduled through it, which owns per-cell
	// memoization, checkpointed replay, and the worker pool for plan
	// fan-out.
	eng *engine.Engine

	mu        sync.Mutex
	profBufs  map[string]*flight[[]trace.Record]
	testBufs  map[string]*flight[[]trace.Record]
	step1     map[cacheKey]*flight[*profile.Step1]
	profiles  map[profileKey]*flight[*profile.Profile]
	patterns  map[cacheKey]*flight[*profile.PatternProfile]
	benchmark map[string]*workload.Benchmark
	// skipped maps benchmark name → why its trace could not be
	// ingested. Sweep experiments drop skipped benchmarks (benches);
	// benchmark-specific experiments fail with the reason (bench).
	skipped map[string]string

	// Cache-miss counters: how many times each artifact class was
	// actually computed rather than served from a flight. The
	// singleflight concurrency tests pin these to one per key.
	// (Column replays are counted by the engine, see ComputedColumns.)
	computedRecords  atomic.Int64
	computedStep1    atomic.Int64
	computedProfiles atomic.Int64
}

// cacheKey names one step-1 sweep: the benchmark's profile input, the
// branch class, the index width and the candidate lengths (in
// fmt.Sprint form, defaults resolved).
type cacheKey struct {
	bench    string
	indirect bool
	k        uint
	lengths  string
}

// profileKey names one two-step profile: its step 1 plus the step-2
// settings, defaults resolved, so equal configurations spelled
// differently share one flight.
type profileKey struct {
	cacheKey
	candidates, iterations int
}

func step1Key(name string, indirect bool, cfg profile.Config) cacheKey {
	return cacheKey{name, indirect, cfg.TableBits, fmt.Sprint(cfg.Lengths)}
}

// NewSuite returns an empty-cached suite.
func NewSuite(cfg Config) *Suite {
	s := &Suite{
		Cfg:       cfg,
		profBufs:  map[string]*flight[[]trace.Record]{},
		testBufs:  map[string]*flight[[]trace.Record]{},
		step1:     map[cacheKey]*flight[*profile.Step1]{},
		profiles:  map[profileKey]*flight[*profile.Profile]{},
		patterns:  map[cacheKey]*flight[*profile.PatternProfile]{},
		benchmark: map[string]*workload.Benchmark{},
		skipped:   map[string]string{},
	}
	s.eng = engine.New(engine.Config{
		Source:  s.TestSource,
		SnapDir: cfg.SnapDir,
	})
	return s
}

// Engine exposes the suite's execution engine, the submission surface
// for cell jobs (the sweep service's /v1/jobs cell path) and for the
// CLI's scheduling counters.
func (s *Suite) Engine() *engine.Engine { return s.eng }

// ComputeCounts reports how many trace generations, step-1 sweeps, and
// profiles (two-step and pattern-history) the suite has actually
// executed (cache misses, not lookups). Under the singleflight caches
// each key computes exactly once however many goroutines ask for it.
func (s *Suite) ComputeCounts() (records, step1, profiles int64) {
	return s.computedRecords.Load(), s.computedStep1.Load(), s.computedProfiles.Load()
}

// ResumedRecords reports how many records column replays skipped by
// resuming from checkpoints in Cfg.SnapDir.
func (s *Suite) ResumedRecords() int64 { return s.eng.Counters().ResumedRecords }

// ComputedColumns reports how many column replays the engine has
// actually executed (cache misses, not lookups). Experiments that ask
// for the same (benchmark, column id) — the CLI rendering an artifact a
// service job already computed, say — share one replay.
func (s *Suite) ComputedColumns() int64 {
	return s.eng.Counters().Executed
}

// primeTestRecords installs pre-ingested test-trace records for a
// benchmark, so later TestSource calls are served without generation.
func (s *Suite) primeTestRecords(name string, recs []trace.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.testBufs[name] = doneFlight(recs)
}

// Skip records that a benchmark is excluded from this run and why.
func (s *Suite) Skip(name, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.skipped[name] = reason
}

// Skipped returns a copy of the benchmark → reason map of exclusions.
func (s *Suite) Skipped() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.skipped))
	for k, v := range s.skipped {
		out[k] = v
	}
	return out
}

// skipReason returns the recorded exclusion reason, if any.
func (s *Suite) skipReason(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.skipped[name]
	return r, ok
}

// bench returns the shared Benchmark instance for a name, so the lazily
// built program is constructed once per suite.
func (s *Suite) bench(name string) (*workload.Benchmark, error) {
	if reason, ok := s.skipReason(name); ok {
		return nil, fmt.Errorf("experiments: benchmark %s skipped: %s", name, reason)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.benchmark[name]; ok {
		return b, nil
	}
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	s.benchmark[name] = b
	return b, nil
}

// benches resolves a list of workload benchmarks through the suite
// cache, dropping benchmarks whose traces were skipped at ingestion so
// suite-wide sweeps degrade gracefully instead of failing outright.
func (s *Suite) benches(bs []*workload.Benchmark) ([]*workload.Benchmark, error) {
	out := make([]*workload.Benchmark, 0, len(bs))
	for _, b := range bs {
		if _, skip := s.skipReason(b.Name()); skip {
			continue
		}
		cached, err := s.bench(b.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, cached)
	}
	if len(out) == 0 && len(bs) > 0 {
		return nil, fmt.Errorf("experiments: every requested benchmark was skipped")
	}
	return out, nil
}

// ProfileSource returns a replayable view of the benchmark's profile-input
// trace, generated once and shared. Views are independent (separate read
// positions over the same records), so they may be used concurrently.
func (s *Suite) ProfileSource(name string) (trace.Source, error) {
	recs, err := s.records(name, true)
	if err != nil {
		return nil, err
	}
	return trace.NewBuffer(recs), nil
}

// TestSource returns a replayable view of the benchmark's test-input
// trace.
func (s *Suite) TestSource(name string) (trace.Source, error) {
	recs, err := s.records(name, false)
	if err != nil {
		return nil, err
	}
	return trace.NewBuffer(recs), nil
}

func (s *Suite) records(name string, profileInput bool) ([]trace.Record, error) {
	cache := s.testBufs
	if profileInput {
		cache = s.profBufs
	}
	f := getFlight(&s.mu, cache, name)
	return f.do(func() ([]trace.Record, error) {
		b, err := s.bench(name)
		if err != nil {
			return nil, err
		}
		s.computedRecords.Add(1)
		var src trace.Source
		if profileInput {
			src = b.ProfileSource(s.Cfg.profBase())
		} else {
			src = b.TestSource(s.Cfg.base())
		}
		return trace.Collect(src).Records, nil
	})
}

// Step1 returns the cached step-1 sweep (all 32 fixed lengths, private
// tables) of one benchmark's profile input at index width k, per-branch
// candidate rankings included, so every two-step profile of that input
// at that k starts from it instead of recomputing it. Concurrent callers for the
// same key share a single computation.
func (s *Suite) Step1(name string, indirect bool, k uint) (*profile.Step1, error) {
	return s.step1For(name, indirect, profile.Config{TableBits: k}.Resolved())
}

// step1For is Step1 for any candidate set; cfg must be resolved.
func (s *Suite) step1For(name string, indirect bool, cfg profile.Config) (*profile.Step1, error) {
	f := getFlight(&s.mu, s.step1, step1Key(name, indirect, cfg))
	return f.do(func() (*profile.Step1, error) {
		src, err := s.ProfileSource(name)
		if err != nil {
			return nil, err
		}
		s.computedStep1.Add(1)
		return profile.RunStep1(src, cfg, indirect)
	})
}

// Profile returns the cached two-step profile of one benchmark at index
// width k. Concurrent callers for the same key share a single
// computation — a full two-step profiling pass is the most expensive
// artifact the suite produces, so duplicate passes are the first thing
// a parallel sweep would otherwise burn time on.
func (s *Suite) Profile(name string, indirect bool, k uint) (*profile.Profile, error) {
	return s.profileFor(name, indirect, profile.Config{TableBits: k})
}

// profileFor returns the cached two-step profile of one benchmark under
// any profile configuration. Step 2 runs from the cached step 1 of the
// same candidate set, so profiles that differ only in their step-2
// settings share one step 1.
func (s *Suite) profileFor(name string, indirect bool, cfg profile.Config) (*profile.Profile, error) {
	cfg = cfg.Resolved()
	key := profileKey{step1Key(name, indirect, cfg), cfg.Candidates, cfg.Iterations}
	f := getFlight(&s.mu, s.profiles, key)
	return f.do(func() (*profile.Profile, error) {
		s1, err := s.step1For(name, indirect, cfg)
		if err != nil {
			return nil, err
		}
		src, err := s.ProfileSource(name)
		if err != nil {
			return nil, err
		}
		s.computedProfiles.Add(1)
		return profile.RunStep2(src, cfg, indirect, s1)
	})
}

// patternProfile returns the cached elastic-history (pattern length)
// profile of one benchmark at index width k; ComputeCounts counts it
// with the two-step profiles.
func (s *Suite) patternProfile(name string, k uint) (*profile.PatternProfile, error) {
	f := getFlight(&s.mu, s.patterns, cacheKey{bench: name, k: k})
	return f.do(func() (*profile.PatternProfile, error) {
		src, err := s.ProfileSource(name)
		if err != nil {
			return nil, err
		}
		s.computedProfiles.Add(1)
		p, _, err := profile.PatternCond(src, profile.Config{TableBits: k})
		return p, err
	})
}

// SuiteFixedLength returns the paper's Table 2 value for one table size:
// the single path length whose summed step-1 accuracy over the given
// benchmarks' *profile* inputs is highest ("To avoid unfairly skewing the
// results in favor of the fixed length predictor, the best path length was
// determined using the profile input sets", §5.1).
func (s *Suite) SuiteFixedLength(bs []*workload.Benchmark, indirect bool, k uint) (int, error) {
	results := make([]profile.Step1Result, 0, len(bs))
	for _, b := range bs {
		r, err := s.Step1(b.Name(), indirect, k)
		if err != nil {
			return 0, err
		}
		if r.Total == 0 {
			continue // benchmark executes no branches of this class
		}
		results = append(results, r.Step1Result)
	}
	if len(results) == 0 {
		return 0, fmt.Errorf("experiments: no benchmark executed branches for the sweep")
	}
	return profile.BestAverageLength(results)
}

// TunedFixedLength returns the per-benchmark tuned fixed length (§5.2.3):
// the best step-1 length on that benchmark's profile input alone.
func (s *Suite) TunedFixedLength(name string, indirect bool, k uint) (int, error) {
	r, err := s.Step1(name, indirect, k)
	if err != nil {
		return 0, err
	}
	if r.Total == 0 {
		return 0, fmt.Errorf("experiments: %s executes no branches of this class", name)
	}
	return r.BestLength(), nil
}

// condK converts a conditional budget in bytes to the index width.
func condK(budgetBytes int) uint { return bpred.MustLog2Entries(budgetBytes, 2) }

// indK converts an indirect budget in bytes to the index width.
func indK(budgetBytes int) uint { return bpred.MustLog2Entries(budgetBytes, 32) }

// Report is one experiment's output: typed data plus rendered text.
type Report struct {
	ID    string
	Title string
	// Text is the rendered table/chart, ready to print.
	Text string
	// Data holds the experiment-specific result struct.
	Data interface{}
	// Metrics records what regenerating the experiment cost (wall
	// time, branches simulated, throughput, allocation). It is filled
	// by Entry.RunMeasured; a bare Entry.Run leaves it zero.
	Metrics obs.RunMetrics
}

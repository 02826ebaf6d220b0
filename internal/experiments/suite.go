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
	"slices"
	"strconv"
	"sync"

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

// Suite carries the configuration and memoises the expensive artifacts:
// generated traces, step-1 sweeps, and two-step profiles (and the
// Benchmark instances behind them). Each lives in an engine.Memo: no matter how many goroutines race for the same key,
// the artifact is computed once and latecomers block on the result.
type Suite struct {
	Cfg Config

	// eng is the suite's execution engine: every column replay — the
	// unit of grid work — is scheduled through it, which owns per-cell
	// memoization, replay, and the worker pool for plan fan-out.
	eng *engine.Engine

	benchmarks engine.Memo[string, *workload.Benchmark]
	traces     engine.Memo[traceKey, *profile.Input]
	step1      engine.Memo[cacheKey, *profile.Step1]
	profiles   engine.Memo[profileKey, *profile.Profile]
	patterns   engine.Memo[cacheKey, *profile.PatternProfile]

	mu sync.Mutex
	// skipped maps benchmark name → why its trace could not be
	// ingested. Sweep experiments drop skipped benchmarks (benches);
	// benchmark-specific experiments fail with the reason (bench).
	skipped map[string]string
}

// traceKey names one benchmark input trace: the test input, or the
// profile input when profile is set. Each trace is memoized as a
// profile.Input, so its static branches are interned once per class
// however many sweeps and profiles read it.
type traceKey struct {
	bench   string
	profile bool
}

// cacheKey names one step-1 sweep: the benchmark's profile input, the
// branch class, the index width and the candidate lengths (in
// lengthsKey form, defaults resolved).
type cacheKey struct {
	bench    string
	indirect bool
	k        uint
	lengths  string
}

// profileKey names one two-step profile: its step 1 plus the step-2
// settings, defaults resolved, so equal configurations spelled
// differently share one memo entry.
type profileKey struct {
	cacheKey
	candidates, iterations int
}

// step1Key names the step-1 sweep of a resolved cfg. The default
// candidate set's key is computed once, so keying it allocates nothing.
func step1Key(name string, indirect bool, cfg profile.Config) cacheKey {
	ls := defaultLengthsKey
	if !slices.Equal(cfg.Lengths, defaultLengths) {
		ls = lengthsKey(cfg.Lengths)
	}
	return cacheKey{name, indirect, cfg.TableBits, ls}
}

// defaultLengths is the default candidate set, every path length
// 1..vlp.DefaultMaxPath, and defaultLengthsKey its lengthsKey.
var (
	defaultLengths    = profile.Config{}.Resolved().Lengths
	defaultLengthsKey = lengthsKey(defaultLengths)
)

// resolve is cfg.Resolved, with the default candidate set shared
// rather than built anew, so resolving a default configuration
// allocates nothing. The set is read-only.
func resolve(cfg profile.Config) profile.Config {
	if cfg.Lengths == nil && cfg.MaxPath == 0 {
		cfg.Lengths = defaultLengths
	}
	return cfg.Resolved()
}

// lengthsKey spells a candidate set as its lengths in decimal, comma
// separated, so distinct sets give distinct keys; the returned string
// is the only allocation.
func lengthsKey(ls []int) string {
	var buf [128]byte
	b := buf[:0]
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return string(b)
}

// NewSuite returns an empty-cached suite.
func NewSuite(cfg Config) *Suite {
	s := &Suite{Cfg: cfg, skipped: map[string]string{}}
	s.eng = engine.New(engine.Config{Source: s.TestSource})
	return s
}

// Engine exposes the suite's execution engine: the submission surface
// for column cells and the source of the CLI's scheduling counters.
func (s *Suite) Engine() *engine.Engine { return s.eng }

// ComputeCounts reports how many trace generations, step-1 sweeps, and
// profiles (two-step and pattern-history) the suite has actually
// executed (memo misses, not lookups). Each key computes exactly once
// however many goroutines ask for it.
func (s *Suite) ComputeCounts() (records, step1, profiles int64) {
	return s.traces.Computed(), s.step1.Computed(), s.profiles.Computed() + s.patterns.Computed()
}

// primeTestRecords installs pre-ingested test-trace records for a
// benchmark, so later TestSource calls are served without generation.
func (s *Suite) primeTestRecords(name string, recs []trace.Record) {
	s.traces.Put(traceKey{bench: name}, profile.NewInput(recs))
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
	return s.benchmarks.Do(name, func() (*workload.Benchmark, error) { return workload.ByName(name) })
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
	in, err := s.input(name, true)
	if err != nil {
		return nil, err
	}
	return trace.NewBuffer(in.Records), nil
}

// TestSource returns a replayable view of the benchmark's test-input
// trace.
func (s *Suite) TestSource(name string) (trace.Source, error) {
	in, err := s.input(name, false)
	if err != nil {
		return nil, err
	}
	return trace.NewBuffer(in.Records), nil
}

// input returns the memoized trace of one benchmark input.
func (s *Suite) input(name string, profileInput bool) (*profile.Input, error) {
	return s.traces.Do(traceKey{name, profileInput}, func() (*profile.Input, error) {
		b, err := s.bench(name)
		if err != nil {
			return nil, err
		}
		var src trace.Source
		if profileInput {
			src = b.ProfileSource(s.Cfg.profBase())
		} else {
			src = b.TestSource(s.Cfg.base())
		}
		return profile.NewInput(trace.Collect(src).Records), nil
	})
}

// Step1 returns the cached step-1 sweep (all 32 fixed lengths, private
// tables) of one benchmark's profile input at index width k, per-branch
// candidate rankings included, so every two-step profile of that input
// at that k starts from it instead of recomputing it. Concurrent callers for the
// same key share a single computation.
func (s *Suite) Step1(name string, indirect bool, k uint) (*profile.Step1, error) {
	return s.step1For(name, indirect, resolve(profile.Config{TableBits: k}))
}

// step1For is Step1 for any candidate set; cfg must be resolved.
func (s *Suite) step1For(name string, indirect bool, cfg profile.Config) (*profile.Step1, error) {
	return s.step1.Do(step1Key(name, indirect, cfg), func() (*profile.Step1, error) {
		in, err := s.input(name, true)
		if err != nil {
			return nil, err
		}
		return in.Step1(cfg, indirect)
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
	cfg = resolve(cfg)
	key := profileKey{step1Key(name, indirect, cfg), cfg.Candidates, cfg.Iterations}
	return s.profiles.Do(key, func() (*profile.Profile, error) {
		s1, err := s.step1For(name, indirect, cfg)
		if err != nil {
			return nil, err
		}
		in, err := s.input(name, true)
		if err != nil {
			return nil, err
		}
		return in.Step2(cfg, indirect, s1)
	})
}

// patternProfile returns the cached elastic-history (pattern length)
// profile of one benchmark at index width k; ComputeCounts counts it
// with the two-step profiles.
func (s *Suite) patternProfile(name string, k uint) (*profile.PatternProfile, error) {
	return s.patterns.Do(cacheKey{bench: name, k: k}, func() (*profile.PatternProfile, error) {
		in, err := s.input(name, true)
		if err != nil {
			return nil, err
		}
		p, _, err := in.PatternCond(profile.Config{TableBits: k})
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

// Package chaos is the deterministic fault-injection layer under the
// service stack: a seed-driven schedule of network-shaped faults —
// added latency, connection resets, truncated response bodies, stalled
// reads, 5xx bursts — configured through the same kv grammar as the
// factory spec string and driven by internal/xrand, so a given seed
// replays the exact same fault schedule run after run.
//
// It plugs in at the two edges of the HTTP path. Transport wraps a
// client-side http.RoundTripper (cmd/vlpsweep and cmd/vlpload mount it
// via their -chaos flags) and injects latency, pre-send connection
// resets, truncated bodies, and stalled reads. Middleware wraps a
// server-side handler (cmd/vlpserve's -chaos flag) and injects slow
// responses, 5xx bursts, and mid-body connection drops. Health probes
// (/v1/healthz) are always exempt on the server side so liveness
// reflects the process, not the schedule — which also keeps the
// coordinator's breaker probes honest.
//
// Determinism: every request draws one fixed-order block of values from
// a single mutex-guarded RNG stream, so the multiset of injected faults
// over a run is a pure function of (seed, number of requests) — the
// chaos-smoke CI stage replays a sweep twice with the same seed and
// asserts the injected-fault counts are identical. DESIGN.md §12
// describes the model.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/factory"
	"repro/internal/xrand"
)

// Fault names one injectable fault kind, as spelled in the grammar and
// in the counts summary.
type Fault string

const (
	// FaultLatency delays a request by Spec.Latency before it proceeds
	// (client side) or before the handler runs (server side).
	FaultLatency Fault = "latency"
	// FaultReset aborts the connection: pre-send ECONNRESET on the
	// client side, a mid-body connection drop on the server side.
	FaultReset Fault = "reset"
	// FaultTruncate cuts the response body short: the client-side
	// transport delivers a prefix then an unexpected EOF; the
	// server-side middleware writes fewer bytes than it declared.
	FaultTruncate Fault = "truncate"
	// FaultStall holds the response for Spec.StallFor: a stalled body
	// read on the client side, a response held before handling on the
	// server side. Both watch the request context, so a client timeout
	// or disconnect cuts the stall short.
	FaultStall Fault = "stall"
	// FaultBurst5xx (server side only) answers with a retryable 503 for
	// Spec.BurstLen consecutive non-exempt requests.
	FaultBurst5xx Fault = "burst5xx"
	// FaultSnap (server side only) fails a session snapshot file
	// operation — a spill write or a rehydrate read — as if the disk
	// had. It exercises the serve layer's hibernation degradation path:
	// a tripped spill drops the session (counted, never a crash).
	FaultSnap Fault = "snap"
)

// Faults lists every fault kind in canonical (sorted) order — the order
// CountsString renders.
func Faults() []Fault {
	return []Fault{FaultBurst5xx, FaultLatency, FaultReset, FaultSnap, FaultStall, FaultTruncate}
}

// Spec is one parsed fault schedule: per-fault trip probabilities plus
// the seed and the fixed fault parameters. The zero value injects
// nothing.
type Spec struct {
	// Seed drives the xrand stream; the same seed replays the same
	// schedule. ParseSpec defaults it to 1.
	Seed uint64
	// Latency and LatencyP: added delay and its per-request probability
	// ("latency=50ms@0.2").
	Latency  time.Duration
	LatencyP float64
	// ResetP is the connection-reset probability ("reset=0.05").
	ResetP float64
	// TruncateP is the truncated-body probability ("truncate=0.02").
	TruncateP float64
	// StallP is the stalled-response probability ("stall=0.01").
	StallP float64
	// Burst5xxP is the probability of starting a 5xx burst
	// ("burst5xx=0.01"); server side only.
	Burst5xxP float64
	// SnapP is the snapshot-I/O failure probability ("snap=0.1");
	// server side only, drawn once per spill or rehydrate attempt.
	SnapP float64
	// StallFor is how long a stalled response holds ("stallfor=5s",
	// default 10s). Stalls resolve early when the request context ends.
	StallFor time.Duration
	// BurstLen is how many consecutive requests one 5xx burst covers
	// ("burstlen=3", default 3).
	BurstLen int
}

// chaosKeys is the grammar vocabulary, named in unknown-key errors.
var chaosKeys = []string{"seed", "latency", "reset", "truncate", "stall", "burst5xx", "snap", "stallfor", "burstlen"}

// ParseSpec parses the chaos kv grammar — e.g.
//
//	chaos:seed=7,latency=50ms@0.2,reset=0.05,truncate=0.02,burst5xx=0.01,stall=0.01
//
// The leading "chaos:" scheme is optional, so flags accept the bare kv
// list too. The tokenizer and error type are the factory grammar's
// (factory.EachKV / *factory.KVError), so this string misparses the
// same way a predictor spec does. FuzzChaosSpec drives it with
// arbitrary inputs.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{Seed: 1, StallFor: 10 * time.Second, BurstLen: 3}
	list := strings.TrimSpace(s)
	if rest, ok := strings.CutPrefix(list, "chaos:"); ok {
		list = rest
	}
	err := factory.EachKV(s, list, func(key, value string, hasValue bool) error {
		if !hasValue || value == "" {
			return factory.ErrNeedsValue(s, key)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return factory.ErrBadValue(s, key, value)
			}
			spec.Seed = n
		case "latency":
			durText, probText, ok := strings.Cut(value, "@")
			if !ok {
				return factory.ErrBadValue(s, key, value)
			}
			d, err := time.ParseDuration(strings.TrimSpace(durText))
			if err != nil || d < 0 {
				return factory.ErrBadValue(s, key, value)
			}
			p, err := parseProb(probText)
			if err != nil {
				return factory.ErrBadValue(s, key, value)
			}
			spec.Latency, spec.LatencyP = d, p
		case "reset":
			p, err := parseProb(value)
			if err != nil {
				return factory.ErrBadValue(s, key, value)
			}
			spec.ResetP = p
		case "truncate":
			p, err := parseProb(value)
			if err != nil {
				return factory.ErrBadValue(s, key, value)
			}
			spec.TruncateP = p
		case "stall":
			p, err := parseProb(value)
			if err != nil {
				return factory.ErrBadValue(s, key, value)
			}
			spec.StallP = p
		case "burst5xx":
			p, err := parseProb(value)
			if err != nil {
				return factory.ErrBadValue(s, key, value)
			}
			spec.Burst5xxP = p
		case "snap":
			p, err := parseProb(value)
			if err != nil {
				return factory.ErrBadValue(s, key, value)
			}
			spec.SnapP = p
		case "stallfor":
			d, err := time.ParseDuration(value)
			if err != nil || d <= 0 {
				return factory.ErrBadValue(s, key, value)
			}
			spec.StallFor = d
		case "burstlen":
			n, err := strconv.Atoi(value)
			if err != nil || n < 1 {
				return factory.ErrBadValue(s, key, value)
			}
			spec.BurstLen = n
		default:
			return factory.ErrUnknownKey(s, key, chaosKeys)
		}
		return nil
	})
	if err != nil {
		return Spec{}, err
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// parseProb parses a probability and rejects values outside [0, 1],
// NaN included.
func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("probability %q outside [0, 1]", s)
	}
	return p, nil
}

// Validate rejects schedules the injector cannot run.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"latency", s.LatencyP}, {"reset", s.ResetP}, {"truncate", s.TruncateP},
		{"stall", s.StallP}, {"burst5xx", s.Burst5xxP}, {"snap", s.SnapP},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("chaos: %s probability %v outside [0, 1]", p.name, p.v)
		}
	}
	if s.LatencyP > 0 && s.Latency <= 0 {
		return fmt.Errorf("chaos: latency fault needs a positive delay, got %v", s.Latency)
	}
	if s.Latency < 0 {
		return fmt.Errorf("chaos: negative latency %v", s.Latency)
	}
	if s.StallFor <= 0 {
		return fmt.Errorf("chaos: stallfor must be positive, got %v", s.StallFor)
	}
	if s.BurstLen < 1 {
		return fmt.Errorf("chaos: burstlen must be at least 1, got %d", s.BurstLen)
	}
	return nil
}

// Enabled reports whether the schedule can inject anything at all.
func (s Spec) Enabled() bool {
	return s.LatencyP > 0 || s.ResetP > 0 || s.TruncateP > 0 || s.StallP > 0 ||
		s.Burst5xxP > 0 || s.SnapP > 0
}

// String renders the spec back in canonical grammar form, suitable for
// round-tripping through ParseSpec and for report Params.
func (s Spec) String() string {
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	if s.Latency > 0 || s.LatencyP > 0 {
		parts = append(parts, fmt.Sprintf("latency=%s@%s", s.Latency, formatProb(s.LatencyP)))
	}
	if s.ResetP > 0 {
		parts = append(parts, "reset="+formatProb(s.ResetP))
	}
	if s.TruncateP > 0 {
		parts = append(parts, "truncate="+formatProb(s.TruncateP))
	}
	if s.StallP > 0 {
		parts = append(parts, "stall="+formatProb(s.StallP))
	}
	if s.Burst5xxP > 0 {
		parts = append(parts, "burst5xx="+formatProb(s.Burst5xxP))
	}
	if s.SnapP > 0 {
		parts = append(parts, "snap="+formatProb(s.SnapP))
	}
	if s.StallFor != 10*time.Second {
		parts = append(parts, "stallfor="+s.StallFor.String())
	}
	if s.BurstLen != 3 {
		parts = append(parts, "burstlen="+strconv.Itoa(s.BurstLen))
	}
	return "chaos:" + strings.Join(parts, ",")
}

func formatProb(p float64) string {
	return strconv.FormatFloat(p, 'g', -1, 64)
}

// Injector is one live fault schedule: the spec, the RNG stream, the
// burst state, and the per-fault counts. One injector is shared by
// every connection of the process edge it guards (all of a sweep's job
// clients, or one server's middleware), so the whole run draws from a
// single deterministic stream.
type Injector struct {
	spec Spec

	mu        sync.Mutex
	rng       *xrand.RNG
	burstLeft int
	counts    map[Fault]int64
}

// New builds an injector for the schedule, seeding its stream from
// Spec.Seed.
func New(spec Spec) *Injector {
	return &Injector{
		spec:   spec,
		rng:    xrand.New(spec.Seed),
		counts: map[Fault]int64{},
	}
}

// Spec returns the schedule the injector runs.
func (in *Injector) Spec() Spec { return in.spec }

// decision is one request's drawn fate: an independent latency delay
// plus at most one failure fault.
type decision struct {
	latency  bool
	fault    Fault // "" means none
	truncAt  float64
	burstLen int // burst requests remaining including this one (server)
}

// decideClient draws one client-side block: latency, reset, truncate,
// stall, in that fixed order, plus the cut fraction when truncate
// trips. The draw is one critical section, so concurrent requests
// partition the stream into whole blocks and the fault counts stay a
// pure function of the seed and the request count.
func (in *Injector) decideClient() decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d decision
	d.latency = in.rng.Bool(in.spec.LatencyP)
	reset := in.rng.Bool(in.spec.ResetP)
	trunc := in.rng.Bool(in.spec.TruncateP)
	stall := in.rng.Bool(in.spec.StallP)
	switch {
	case reset:
		d.fault = FaultReset
	case trunc:
		d.fault = FaultTruncate
		d.truncAt = in.rng.Float64()
	case stall:
		d.fault = FaultStall
	}
	in.record(d)
	return d
}

// decideServer draws one server-side block: latency, burst5xx, reset,
// truncate, stall. An in-progress burst consumes no draws — its
// remaining length is part of the schedule already drawn.
func (in *Injector) decideServer() decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d decision
	if in.burstLeft > 0 {
		in.burstLeft--
		d.fault = FaultBurst5xx
		in.record(d)
		return d
	}
	d.latency = in.rng.Bool(in.spec.LatencyP)
	burst := in.rng.Bool(in.spec.Burst5xxP)
	reset := in.rng.Bool(in.spec.ResetP)
	trunc := in.rng.Bool(in.spec.TruncateP)
	stall := in.rng.Bool(in.spec.StallP)
	switch {
	case burst:
		d.fault = FaultBurst5xx
		in.burstLeft = in.spec.BurstLen - 1
	case reset:
		d.fault = FaultReset
		d.truncAt = in.rng.Float64()
	case trunc:
		d.fault = FaultTruncate
		d.truncAt = in.rng.Float64()
	case stall:
		d.fault = FaultStall
	}
	in.record(d)
	return d
}

// ErrSnapFault is the error an injected snapshot-I/O failure surfaces
// as; the serve layer treats it exactly like a real disk error.
var ErrSnapFault = errors.New("chaos: injected snapshot fault")

// SnapFault draws one snapshot-fault decision, returning ErrSnapFault
// when it trips. The serve layer mounts it (Server.SetSnapFault) on
// every spill write and rehydrate read; like every other draw it is one
// fixed-order block from the shared stream, so the injected-fault
// multiset stays a pure function of the seed and the operation count.
func (in *Injector) SnapFault() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d decision
	if in.rng.Bool(in.spec.SnapP) {
		d.fault = FaultSnap
	}
	in.record(d)
	if d.fault != "" {
		return ErrSnapFault
	}
	return nil
}

// record tallies one decision; the caller holds the mutex.
func (in *Injector) record(d decision) {
	if d.latency {
		in.counts[FaultLatency]++
	}
	if d.fault != "" {
		in.counts[d.fault]++
	}
}

// Counts snapshots the per-fault injection totals.
func (in *Injector) Counts() map[Fault]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Fault]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// CountsString renders the totals in one stable line —
// "burst5xx=0 latency=3 reset=1 stall=0 truncate=2" — every fault kind
// present, sorted, so two runs' lines compare with a string equality
// (the chaos-smoke replay check does exactly that).
func (in *Injector) CountsString() string {
	counts := in.Counts()
	faults := Faults()
	parts := make([]string, len(faults))
	for i, f := range faults {
		parts[i] = fmt.Sprintf("%s=%d", f, counts[f])
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

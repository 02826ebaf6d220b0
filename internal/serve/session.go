package serve

import (
	"bytes"
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bpred"
	"repro/internal/bpred/state"
	"repro/internal/factory"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/trace"
)

// session owns one long-lived predictor. Chunks replayed through it in
// order accumulate exactly the state a single batch run over the
// concatenated records would build, which is what keeps served rates
// bit-identical to vlpsim (DESIGN.md §10): the predictor is constructed
// once, and every chunk goes through the same sim.RunCond/RunIndirect
// kernel call the batch tools use.
type session struct {
	ID    string
	Class factory.Class
	Spec  factory.Spec

	// mu serializes replay: a predictor is stateful and single-stream,
	// so concurrent chunks on one session queue here (bounded by the
	// server's worker pool, not per-session).
	mu   sync.Mutex
	pred bpred.Predictor
	run  func(ctx context.Context, src trace.Source) sim.Result
	// gen is the state generation, guarded by mu: it starts at 1 and
	// goes up on every replayed chunk (canceled or not) and every
	// restore. The predictor and the totals change together with it,
	// under mu, so two captures of one generation are the same state.
	gen uint64
	// testHookReplayed, when set by a test, runs under mu between a
	// replay and its totals update.
	testHookReplayed func()

	// spillMu runs the session's spills one at a time, so the last
	// rename always holds the newest captured state. spilledGen, under
	// spillMu, is the generation the spill file holds (noGen: none).
	spillMu    sync.Mutex
	spilledGen uint64

	created time.Time

	// st guards the accumulated totals so /metrics and info reads do
	// not block behind a replay in flight.
	st          sync.Mutex
	chunks      int64
	records     int64
	branches    int64
	mispredicts int64
	lastUsed    time.Time

	hist obs.Histogram
}

// newSession builds the predictor for an already-validated class/spec
// pair. Construction resolves the spec's profile (the one I/O step), so
// it can fail even after ParseSessionRequest accepted.
func newSession(id string, class factory.Class, spec factory.Spec) (*session, error) {
	s := &session{
		ID:      id,
		Class:   class,
		Spec:    spec,
		gen:     1,
		created: time.Now(),
	}
	s.st.Lock()
	s.lastUsed = s.created
	s.st.Unlock()
	switch class {
	case factory.Indirect:
		p, err := spec.Indirect()
		if err != nil {
			return nil, err
		}
		s.pred = p
		s.run = func(ctx context.Context, src trace.Source) sim.Result {
			return sim.RunIndirect(ctx, p, src, sim.Options{})
		}
	default:
		p, err := spec.Cond()
		if err != nil {
			return nil, err
		}
		s.pred = p
		s.run = func(ctx context.Context, src trace.Source) sim.Result {
			return sim.RunCond(ctx, p, src, sim.Options{})
		}
	}
	return s, nil
}

// predict replays one decoded chunk and folds its counts into the
// session totals, returning the per-chunk result. The replay, the new
// generation and the totals update are one step under the replay lock,
// so a concurrent snapshot sees either none of the chunk or all of it.
func (s *session) predict(ctx context.Context, buf *trace.Buffer) (sim.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.run(ctx, buf)
	s.gen++
	if s.testHookReplayed != nil {
		s.testHookReplayed()
	}
	if res.Err != nil {
		// A canceled replay left the predictor partially trained; the
		// session's totals no longer describe a clean prefix, so report
		// the failure without folding in the partial counts.
		return res, fmt.Errorf("serve: replay aborted after %d branches: %w", res.Branches, res.Err)
	}
	s.st.Lock()
	s.chunks++
	s.records += int64(buf.Len())
	s.branches += res.Branches
	s.mispredicts += res.Mispredicts
	s.lastUsed = time.Now()
	s.st.Unlock()
	return res, nil
}

// noGen is the generation of no state: a spill file that holds
// nothing, or a capture that must happen whatever the generation.
const noGen = 0

// snapshot captures the session as a vlps/v1 snapshot: the predictor's
// externalized state plus the accumulated totals in the meta field,
// together with the generation captured. It takes the replay lock, so
// the captured state is always a clean between-chunks boundary —
// restoring it and streaming the remaining chunks is bit-identical to
// never having stopped. A holder of generation have gets a nil
// snapshot while the session is still at that generation; noGen always
// captures.
func (s *session) snapshot(have uint64) (*snap.Snapshot, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen == have {
		return nil, have, nil
	}
	sn, err := snap.Capture(s.Class.String(), s.Spec.String(), s.pred)
	if err != nil {
		return nil, noGen, err
	}
	s.st.Lock()
	chunks, records := s.chunks, s.records
	branches, mispredicts := s.branches, s.mispredicts
	s.st.Unlock()
	var meta bytes.Buffer
	e := state.NewEncoder(&meta)
	e.U64(uint64(chunks))
	e.U64(uint64(records))
	e.U64(uint64(branches))
	e.U64(uint64(mispredicts))
	if err := e.Err(); err != nil {
		return nil, noGen, err
	}
	sn.Meta = meta.Bytes()
	return sn, s.gen, nil
}

// restoreFrom loads a snapshot's predictor state and totals into a
// freshly built session of the same class and spec, as a new
// generation. On error the session must be discarded (the predictor may
// be half-written).
func (s *session) restoreFrom(sn *snap.Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	if err := sn.Restore(s.Class.String(), s.Spec.String(), s.pred); err != nil {
		return err
	}
	r := bytes.NewReader(sn.Meta)
	d := state.NewDecoder(r)
	chunks := int64(d.U64())
	records := int64(d.U64())
	branches := int64(d.U64())
	mispredicts := int64(d.U64())
	if err := d.Err(); err != nil {
		return err
	}
	if r.Len() != 0 {
		return state.Corruptf("serve: %d trailing bytes in snapshot meta", r.Len())
	}
	s.st.Lock()
	s.chunks, s.records = chunks, records
	s.branches, s.mispredicts = branches, mispredicts
	s.lastUsed = time.Now()
	s.st.Unlock()
	return nil
}

// SessionInfo is the JSON view of one session, returned by the session
// endpoints and embedded in /metrics.
type SessionInfo struct {
	ID          string          `json:"id"`
	Class       string          `json:"class"`
	Spec        string          `json:"spec"`
	Predictor   string          `json:"predictor"`
	SizeBytes   int             `json:"size_bytes"`
	Chunks      int64           `json:"chunks"`
	Records     int64           `json:"records"`
	Branches    int64           `json:"branches"`
	Mispredicts int64           `json:"mispredicts"`
	MissRate    float64         `json:"miss_rate"`
	IdleNanos   int64           `json:"idle_ns"`
	Latency     obs.HistSummary `json:"latency"`
}

// info snapshots the session.
func (s *session) info() SessionInfo {
	s.st.Lock()
	defer s.st.Unlock()
	in := SessionInfo{
		ID:          s.ID,
		Class:       s.Class.String(),
		Spec:        s.Spec.String(),
		Predictor:   s.pred.Name(),
		SizeBytes:   s.pred.SizeBytes(),
		Chunks:      s.chunks,
		Records:     s.records,
		Branches:    s.branches,
		Mispredicts: s.mispredicts,
		IdleNanos:   int64(time.Since(s.lastUsed)),
		Latency:     s.hist.Summary(),
	}
	if in.Branches > 0 {
		in.MissRate = float64(in.Mispredicts) / float64(in.Branches)
	}
	return in
}

// touch marks the session used now (for TTL accounting on reads).
func (s *session) touch() {
	s.st.Lock()
	s.lastUsed = time.Now()
	s.st.Unlock()
}

// idleSince returns the last-used instant.
func (s *session) idleSince() time.Time {
	s.st.Lock()
	defer s.st.Unlock()
	return s.lastUsed
}

// registry is the LRU session store: a map for lookup and an intrusive
// list ordered most-recently-used first, bounded by MaxSessions with
// idle-TTL expiry. All methods are safe for concurrent use.
type registry struct {
	mu       sync.Mutex
	maxN     int
	ttl      time.Duration
	byID     map[string]*list.Element // value: *session
	order    *list.List               // front = most recently used
	seq      int64
	evictLRU int64
	evictTTL int64
}

func newRegistry(maxN int, ttl time.Duration) *registry {
	return &registry{
		maxN:  maxN,
		ttl:   ttl,
		byID:  make(map[string]*list.Element),
		order: list.New(),
	}
}

// add inserts a new session, assigning an ID when the request left it
// empty. It fails on a duplicate ID and evicts the least recently used
// session when the registry is full. The evicted session is returned
// (nil when nothing was displaced) so the caller can hibernate it.
func (r *registry) add(s *session) (evicted *session, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == "" {
		r.seq++
		s.ID = fmt.Sprintf("s-%d", r.seq)
	}
	if _, ok := r.byID[s.ID]; ok {
		return nil, fmt.Errorf("serve: session %q already exists", s.ID)
	}
	if r.order.Len() >= r.maxN {
		if back := r.order.Back(); back != nil {
			old := back.Value.(*session)
			r.order.Remove(back)
			delete(r.byID, old.ID)
			r.evictLRU++
			evicted = old
		}
	}
	r.byID[s.ID] = r.order.PushFront(s)
	return evicted, nil
}

// get returns the named session, promoting it to most recently used.
func (r *registry) get(id string) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.byID[id]
	if !ok {
		return nil, false
	}
	r.order.MoveToFront(el)
	return el.Value.(*session), true
}

// remove deletes the named session.
func (r *registry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.byID[id]
	if !ok {
		return false
	}
	r.order.Remove(el)
	delete(r.byID, id)
	return true
}

// sweep evicts every session idle past the TTL and returns them so the
// caller can hibernate them. The janitor calls it periodically; it is
// also safe to call inline.
func (r *registry) sweep(now time.Time) []*session {
	if r.ttl <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var evicted []*session
	// Walk from the back (least recently used): the first fresh session
	// does not end the scan, because idleSince is finer-grained than the
	// LRU order (a promoted-but-idle session can sit in front).
	for el := r.order.Back(); el != nil; {
		prev := el.Prev()
		s := el.Value.(*session)
		if now.Sub(s.idleSince()) > r.ttl {
			r.order.Remove(el)
			delete(r.byID, s.ID)
			r.evictTTL++
			evicted = append(evicted, s)
		}
		el = prev
	}
	return evicted
}

// snapshot returns every live session, most recently used first.
func (r *registry) snapshot() []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*session, 0, r.order.Len())
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*session))
	}
	return out
}

// stats returns the live count and cumulative eviction counters.
func (r *registry) stats() (live int, lru, ttl int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order.Len(), r.evictLRU, r.evictTTL
}

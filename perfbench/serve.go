package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bpred"
	"repro/internal/factory"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// serve-stream and serve-spill: serve.New(...).Handler() on a loopback
// listener, driven by closed-loop clients. Each client owns every
// clients-th session and streams its sessions' pre-encoded chunks
// round-robin, in order, waiting for each reply. A pass creates the
// sessions, streams every chunk, and deletes them; an operation is one
// chunk. serve-stream runs cfg.workers clients. serve-spill replays the
// same sessions and chunks with a spill directory and MaxSessions below
// the session count, so every chunk spills and nearly every request
// rehydrates, from one client: with two, a request can evict a session
// whose spill file is not yet written while its owner asks for it, and
// the server answers 404 (see README.md). The two workloads therefore
// differ in concurrency as well as in spilling and are not comparable.

// sessionPlan is one served session: a benchmark's held-out trace
// replayed through one predictor spec. "$PROFILE" in the spec is
// replaced by the path of the benchmark's saved profile for the class.
type sessionPlan struct {
	bench, class, spec string
}

// servePlan mixes classes and specs so that, dealt round-robin to two
// clients, each client gets two conditional and two indirect sessions.
var servePlan = []sessionPlan{
	{"gcc", "cond", "gshare:budget=16KB"},
	{"go", "cond", "flp:budget=16KB,fixed=8"},
	{"perl", "indirect", "flp:budget=2KB,fixed=4"},
	{"perl", "indirect", "vlp:budget=2KB,profile=$PROFILE"},
	{"li", "cond", "vlp:budget=16KB,profile=$PROFILE"},
	{"gcc", "cond", "vlp:budget=16KB,profile=$PROFILE"},
	{"gcc", "indirect", "vlp:budget=2KB,profile=$PROFILE"},
	{"vortex", "indirect", "flp:budget=2KB,fixed=8"},
}

// spillMaxSessions keeps serve-spill's registry below the session
// count: the client cycles over its sessions, so the least recently
// used one is always the next one asked for.
const spillMaxSessions = 4

// clients is the number of closed-loop clients a serve workload runs.
func (b *bench) clients(spill bool) int {
	if spill {
		return 1
	}
	return b.cfg.workers
}

// session is one planned session with its inputs.
type session struct {
	name   string
	class  string
	spec   string // with the profile path filled in
	recs   []trace.Record
	chunks [][]byte
	ref    sim.Result // batch replay of recs, the expected totals
}

// rig is one set-up: the encoded inputs, the profiles on disk, and a
// running server with its client.
type rig struct {
	sessions []*session
	records  int
	profiles int
	spillDir string
	clients  int
	srv      *serve.Server
	url      string
	client   *http.Client
	stop     func() error
}

// serveSetup generates each benchmark's held-out trace (input 2+seed),
// encodes its chunks, builds and saves the vlp profiles, and starts the
// server. With a tracer the stages are spans under parent.
func (b *bench) serveSetup(spill bool, t *tracer, parent int) (*rig, error) {
	r := &rig{clients: b.clients(spill)}
	recs := map[string][]trace.Record{}
	chunks := map[string][][]byte{}
	err := t.stage("workload", parent, func() error {
		for _, p := range servePlan {
			if _, ok := recs[p.bench]; ok {
				continue
			}
			wb, err := workload.ByName(p.bench)
			if err != nil {
				return err
			}
			all := trace.Collect(wb.InputSource(b.cfg.serveBase, 2+b.cfg.seed)).Records
			recs[p.bench] = all
			r.records += len(all)
			for lo := 0; lo < len(all); lo += b.cfg.chunk {
				hi := min(lo+b.cfg.chunk, len(all))
				data, err := trace.Encode(trace.NewBuffer(all[lo:hi]))
				if err != nil {
					return err
				}
				chunks[p.bench] = append(chunks[p.bench], data)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	profDir := filepath.Join(b.cfg.workdir, "profiles")
	err = t.stage("profile", parent, func() error {
		saved := map[string]bool{}
		for i, p := range servePlan {
			spec := p.spec
			if strings.Contains(spec, "$PROFILE") {
				path := filepath.Join(profDir, p.bench+"-"+p.class+".prof")
				if !saved[path] {
					if err := b.saveProfile(p, path); err != nil {
						return err
					}
					saved[path] = true
					r.profiles++
				}
				spec = strings.ReplaceAll(spec, "$PROFILE", path)
			}
			r.sessions = append(r.sessions, &session{
				name: fmt.Sprintf("s%d-%s-%s", i, p.bench, p.class), class: p.class, spec: spec,
				recs: recs[p.bench], chunks: chunks[p.bench],
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The server starts last, so a failed set-up leaves nothing running.
	if err := t.stage("server", parent, func() error { return r.start(b, spill) }); err != nil {
		return nil, err
	}
	return r, nil
}

// saveProfile builds the two-step profile of a session's benchmark on
// its profile input, sized to the spec's budget, and saves it.
func (b *bench) saveProfile(p sessionPlan, path string) error {
	spec, err := factory.ParseSpec(strings.ReplaceAll(p.spec, "$PROFILE", path))
	if err != nil {
		return err
	}
	wb, err := workload.ByName(p.bench)
	if err != nil {
		return err
	}
	src := trace.Collect(wb.ProfileSource(b.cfg.serveProfBase))
	var prof *profile.Profile
	if p.class == "indirect" {
		prof, _, err = profile.Indirect(src, profile.Config{TableBits: bpred.MustLog2Entries(spec.BudgetBytes, 32)})
	} else {
		prof, _, err = profile.Cond(src, profile.Config{TableBits: bpred.MustLog2Entries(spec.BudgetBytes, 2)})
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return prof.Save(path)
}

// start runs a fresh server on a loopback listener.
func (r *rig) start(b *bench, spill bool) error {
	limits := serve.DefaultLimits()
	limits.Workers = b.cfg.workers
	limits.IdleTTL = 0
	if spill {
		limits.MaxSessions = spillMaxSessions
	}
	srv, err := serve.New(limits, nil)
	if err != nil {
		return err
	}
	if spill {
		r.spillDir = filepath.Join(b.cfg.workdir, "spill")
		if err := os.MkdirAll(r.spillDir, 0o755); err != nil {
			return err
		}
		srv.SetSpillDir(r.spillDir)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: b.cfg.workers, MaxConnsPerHost: b.cfg.workers}
	r.srv, r.url = srv, "http://"+ln.Addr().String()
	r.client = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	r.stop = func() error {
		tr.CloseIdleConnections()
		cancel()
		return <-done
	}
	return nil
}

// serverData is the server's counters.
func (r *rig) serverData() serve.MetricsData {
	return r.srv.MetricsReport().Data.(serve.MetricsData)
}

// refs computes each session's expected totals with a batch replay.
func (r *rig) refs(ctx context.Context) error {
	for _, s := range r.sessions {
		pred, err := buildPredictor(s.class, s.spec)
		if err != nil {
			return err
		}
		s.ref = replay(ctx, s.class, pred, trace.NewBuffer(s.recs))
	}
	return nil
}

func buildPredictor(class, specStr string) (bpred.Predictor, error) {
	spec, err := factory.ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	if class == "indirect" {
		return spec.Indirect()
	}
	return spec.Cond()
}

func replay(ctx context.Context, class string, p bpred.Predictor, buf *trace.Buffer) sim.Result {
	if class == "indirect" {
		return sim.RunIndirect(ctx, p.(bpred.IndirectPredictor), buf, sim.Options{})
	}
	return sim.RunCond(ctx, p.(bpred.CondPredictor), buf, sim.Options{})
}

// trafficResult is one pass of client traffic.
type trafficResult struct {
	latMS    []float64
	busy     time.Duration // summed chunk latency
	retries  int
	attempts int
	failures int
	totals   map[string]serve.PredictResponse
	errs     []string
}

// maxRetries bounds retries of a refused (429/503) chunk; each waits
// retryWait. A chunk still refused after them fails.
const (
	maxRetries = 100
	retryWait  = time.Millisecond
)

// traffic runs one pass: every client creates its sessions, streams
// their chunks round-robin, then deletes them. With a tracer, each
// request is a span under parent.
func (r *rig) traffic(ctx context.Context, passID int, t *tracer, parent int) *trafficResult {
	res := &trafficResult{totals: map[string]serve.PredictResponse{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []*session
			for i, s := range r.sessions {
				if i%r.clients == c {
					mine = append(mine, s)
				}
			}
			local := r.runClient(ctx, passID, mine, t, parent)
			mu.Lock()
			defer mu.Unlock()
			res.latMS = append(res.latMS, local.latMS...)
			res.busy += local.busy
			res.retries += local.retries
			res.attempts += local.attempts
			res.failures += local.failures
			res.errs = append(res.errs, local.errs...)
			for k, v := range local.totals {
				res.totals[k] = v
			}
		}(c)
	}
	wg.Wait()
	return res
}

// runClient is one closed-loop client over its own sessions.
func (r *rig) runClient(ctx context.Context, passID int, mine []*session, t *tracer, parent int) *trafficResult {
	res := &trafficResult{totals: map[string]serve.PredictResponse{}}
	id := func(s *session) string { return fmt.Sprintf("p%d-%s", passID, s.name) }
	dead := map[*session]bool{}
	for _, s := range mine {
		body, _ := json.Marshal(serve.SessionRequest{ID: id(s), Class: s.class, Spec: s.spec})
		if _, err := r.do(ctx, "POST", "/v1/sessions", body, http.StatusCreated, nil); err != nil {
			res.errs = append(res.errs, fmt.Sprintf("create %s: %v", id(s), err))
			dead[s] = true
		}
	}
	for j := 0; ; j++ {
		sent := false
		for _, s := range mine {
			if j >= len(s.chunks) {
				continue
			}
			sent = true
			res.attempts++
			if dead[s] {
				res.failures++
				continue
			}
			var span int
			if t != nil {
				span = t.begin("request", parent)
			}
			var pr serve.PredictResponse
			t0 := time.Now()
			retries, err := r.do(ctx, "POST", "/v1/sessions/"+id(s)+"/chunks", s.chunks[j], http.StatusOK, &pr)
			lat := time.Since(t0)
			if t != nil {
				t.end(span)
			}
			res.latMS = append(res.latMS, ms(lat))
			res.busy += lat
			res.retries += retries
			if err != nil {
				res.failures++
				res.errs = append(res.errs, fmt.Sprintf("chunk %d of %s: %v", j, id(s), err))
				dead[s] = true
				continue
			}
			res.totals[s.name] = pr
		}
		if !sent {
			break
		}
	}
	for _, s := range mine {
		if _, err := r.do(ctx, "DELETE", "/v1/sessions/"+id(s), nil, http.StatusNoContent, nil); err != nil {
			res.errs = append(res.errs, fmt.Sprintf("delete %s: %v", id(s), err))
		}
	}
	return res
}

// do sends one request, retrying refusals (429, 503), and decodes a
// JSON reply into out when out is set.
func (r *rig) do(ctx context.Context, method, path string, body []byte, want int, out any) (retries int, err error) {
	for {
		req, err := http.NewRequestWithContext(ctx, method, r.url+path, bytes.NewReader(body))
		if err != nil {
			return retries, err
		}
		resp, err := r.client.Do(req)
		if err != nil {
			return retries, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return retries, err
		}
		switch {
		case resp.StatusCode == want:
			if out != nil {
				return retries, json.Unmarshal(data, out)
			}
			return retries, nil
		case (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) && retries < maxRetries:
			retries++
			time.Sleep(retryWait)
		default:
			return retries, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
		}
	}
}

// checkTraffic books a pass's operations and fails every session whose
// served totals differ from the batch replay of the same records.
func (b *bench) checkTraffic(r *rig, tr *trafficResult) {
	b.attempted += tr.attempts
	b.failed += tr.failures
	for _, e := range tr.errs {
		b.fail("%s", e)
	}
	for _, s := range r.sessions {
		got, ok := tr.totals[s.name]
		if !ok {
			continue // its failure is already booked
		}
		if got.TotalBranches != s.ref.Branches || got.TotalMispredicts != s.ref.Mispredicts ||
			got.TotalMissRate != s.ref.Rate() {
			b.failed++
			b.fail("session %s: served %d/%d (rate %v), batch %d/%d (rate %v)", s.name,
				got.TotalMispredicts, got.TotalBranches, got.TotalMissRate,
				s.ref.Mispredicts, s.ref.Branches, s.ref.Rate())
		}
	}
}

// servePass is one timed traffic pass.
func (b *bench) servePass(r *rig, passID int, t *tracer) (pass, *trafficResult, serve.MetricsData) {
	before := r.serverData()
	var tr *trafficResult
	wall, rt, _ := region(func() error {
		parent := -1
		if t != nil {
			parent = t.begin("traffic", -1)
			defer t.end(parent)
		}
		tr = r.traffic(b.ctx, passID, t, parent)
		return nil
	})
	after := r.serverData()
	b.checkTraffic(r, tr)
	d := serve.MetricsData{
		Requests:          after.Requests - before.Requests,
		Rejected:          after.Rejected - before.Rejected,
		ClientErrors:      after.ClientErrors - before.ClientErrors,
		ServerErrors:      after.ServerErrors - before.ServerErrors,
		BranchesScored:    after.BranchesScored - before.BranchesScored,
		SnapshotsSaved:    after.SnapshotsSaved - before.SnapshotsSaved,
		SnapshotsRestored: after.SnapshotsRestored - before.SnapshotsRestored,
		RehydrateFailures: after.RehydrateFailures - before.RehydrateFailures,
	}
	return pass{wall: wall, branches: d.BranchesScored, alloc: rt.allocBytes}, tr, d
}

func (b *bench) serveReport(r *rig, spill bool) {
	chunks := 0
	for _, s := range r.sessions {
		chunks += len(s.chunks)
	}
	b.report["scale"] = map[string]any{
		"base_records": b.cfg.serveBase, "profile_records": b.cfg.serveProfBase,
		"chunk_records": b.cfg.chunk, "sessions": len(r.sessions), "chunks_per_pass": chunks,
		"test_input": fmt.Sprintf("Benchmark.InputSource(base, 2+%d)", b.cfg.seed),
	}
	b.settings["clients"] = fmt.Sprintf("%d closed-loop", r.clients)
	b.settings["server_workers"] = b.cfg.workers
	b.settings["untimed_warmup_pass"] = true
	if spill {
		b.settings["spill_dir"] = r.spillDir
		b.settings["spill_dir_fs"] = fsKind(r.spillDir)
		b.settings["max_sessions"] = spillMaxSessions
		b.settings["clients_note"] = "1 client, not 2, because of an open server eviction race; not comparable with serve-stream"
	}
	totals := map[string]string{}
	for _, s := range r.sessions {
		totals[s.name] = fmt.Sprintf("%d/%d", s.ref.Mispredicts, s.ref.Branches)
	}
	b.report["session_totals"] = totals
}

// fsKind names the filesystem holding dir, for the report.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// serveRig runs cfg.setups set-ups, keeping the last, and prepares it:
// batch references, then one untimed warm-up pass.
func (b *bench) serveRig(spill bool) (*rig, error) {
	var r *rig
	for i := 0; i < b.cfg.setups; i++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return nil, err
			}
			r = nil
		}
		setup, _, err := region(func() error {
			var err error
			r, err = b.serveSetup(spill, nil, -1)
			return err
		})
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, setup)
	}
	if err := r.refs(b.ctx); err != nil {
		r.stop()
		return nil, err
	}
	b.serveReport(r, spill)
	b.servePass(r, 0, nil)
	return r, nil
}

func serveTimed(b *bench, spill bool) error {
	r, err := b.serveRig(spill)
	if err != nil {
		return err
	}
	passID := 1
	err = b.loop(samplesFor(0.9), func() (pass, error) {
		p, tr, _ := b.servePass(r, passID, nil)
		passID++
		b.latMS = append(b.latMS, tr.latMS...)
		return p, nil
	})
	if stopErr := r.stop(); err == nil {
		err = stopErr
	}
	return err
}

// tracedPairs is how many untraced and traced traffic passes the
// traced run alternates; their medians give the tracing overhead.
const tracedPairs = 5

// serveTraced records the set-up stages under spans, alternates
// untraced and traced traffic passes (a span per request), then times
// the layers a chunk crosses — decode, replay, snapshot save and load —
// through their public calls, stage by stage.
func serveTraced(b *bench, spill bool) error {
	t := newTracer(fmt.Sprintf("%s/%d", b.cfg.workload, b.cfg.seed))
	r0 := readRuntime()
	root := t.begin("setup", -1)
	r, err := b.serveSetup(spill, t, root)
	t.end(root)
	if err != nil {
		return err
	}
	defer r.stop()
	if err := r.refs(b.ctx); err != nil {
		return err
	}
	b.serveReport(r, spill)
	b.layers["workload.gen_s"] = stageSeconds(t.spans, "workload")
	b.layers["workload.records"] = float64(r.records)
	b.layers["profile.build_s"] = stageSeconds(t.spans, "profile")
	b.layers["profile.twostep_runs"] = float64(r.profiles)

	b.servePass(r, 0, nil) // warm-up
	var plain, traced, busy []float64
	var ref *trafficResult
	var counts serve.MetricsData
	for i := 0; i < tracedPairs; i++ {
		p, tr, d := b.servePass(r, 1+2*i, nil)
		plain = append(plain, p.wall.Seconds())
		busy = append(busy, tr.busy.Seconds())
		if ref == nil {
			ref, counts = tr, d
		}
		p, _, _ = b.servePass(r, 2+2*i, t)
		traced = append(traced, p.wall.Seconds())
	}
	b.layers["serve.requests"] = float64(counts.Requests)
	b.layers["serve.rejected"] = float64(counts.Rejected)
	b.layers["serve.errors"] = float64(counts.ClientErrors + counts.ServerErrors)
	b.layers["serve.retries"] = float64(ref.retries)
	b.layers["snap.saved"] = float64(counts.SnapshotsSaved)
	b.layers["snap.restored"] = float64(counts.SnapshotsRestored)
	b.layers["snap.failures"] = float64(counts.RehydrateFailures)

	lt := newTracer(t.run)
	lroot := lt.begin("layers", -1)
	err = b.serveLayers(r, lt, lroot)
	lt.end(lroot)
	if err != nil {
		return err
	}
	rt := readRuntime().sub(r0)
	decode := stageSeconds(lt.spans, "decode")
	replaySec := stageSeconds(lt.spans, "replay")
	save, load := stageSeconds(lt.spans, "snap.save"), stageSeconds(lt.spans, "snap.load")
	b.layers["trace.decode_s"] = decode
	b.layers["serve.replay_s"] = replaySec
	b.layers["snap.save_s"] = save
	b.layers["snap.load_s"] = load
	overhead := median(busy) - decode - replaySec
	covered := lt.spans
	if spill {
		overhead -= save + load
	} else {
		// Without a spill directory the server never snapshots, so the
		// snapshot stages explain none of its time.
		covered = nil
		for _, s := range lt.spans {
			if !strings.HasPrefix(s.Name, "snap.") {
				covered = append(covered, s)
			}
		}
	}
	b.layers["serve.overhead_s"] = overhead
	b.layers["runtime.gc_cycles"] = float64(rt.gcCycles)
	b.layers["runtime.gc_pause_s"] = rt.gcPause
	b.layers["bench.coverage"] = coverage(covered, seconds(median(plain)))
	b.layers["bench.overhead_frac"] = median(traced)/median(plain) - 1
	b.report["spans"] = append(spanReport(t.spans), spanReport(lt.spans)...)
	return nil
}

// serveLayers replays one pass's chunks through the layers a served
// chunk crosses, each call under a span: trace.Decode of every payload,
// then per session the chunk replay, a snapshot save (Capture +
// SaveFile) and a load (LoadFile + Restore into a fresh predictor that
// replays the next chunk). The final totals must match the batch run.
func (b *bench) serveLayers(r *rig, t *tracer, root int) error {
	decoded := make([][]*trace.Buffer, len(r.sessions))
	var payload int
	err := t.stage("decode", root, func() error {
		for i, s := range r.sessions {
			for _, c := range s.chunks {
				buf, err := trace.Decode(c)
				if err != nil {
					return err
				}
				decoded[i] = append(decoded[i], buf)
				payload += len(c)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	dir := filepath.Join(b.cfg.workdir, "layer-snaps")
	var branches, snapBytes int64
	for i, s := range r.sessions {
		spec, err := factory.ParseSpec(s.spec)
		if err != nil {
			return err
		}
		pred, err := buildPredictor(s.class, s.spec)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, s.name+".vlps")
		var total sim.Result
		for _, buf := range decoded[i] {
			var res sim.Result
			t.stage("replay", root, func() error {
				res = replay(b.ctx, s.class, pred, buf)
				return nil
			})
			total.Branches += res.Branches
			total.Mispredicts += res.Mispredicts
			err := t.stage("snap.save", root, func() error {
				sn, err := snap.Capture(s.class, spec.String(), pred)
				if err != nil {
					return err
				}
				return sn.SaveFile(path)
			})
			if err != nil {
				return err
			}
			if st, err := os.Stat(path); err == nil {
				snapBytes += st.Size()
			}
			fresh, err := buildPredictor(s.class, s.spec)
			if err != nil {
				return err
			}
			err = t.stage("snap.load", root, func() error {
				sn, err := snap.LoadFile(path)
				if err != nil {
					return err
				}
				return sn.Restore(s.class, spec.String(), fresh)
			})
			if err != nil {
				return err
			}
			pred = fresh
		}
		branches += total.Branches
		b.attempted++
		if total.Branches != s.ref.Branches || total.Mispredicts != s.ref.Mispredicts {
			b.failed++
			b.fail("session %s layer replay: %d/%d, batch %d/%d", s.name,
				total.Mispredicts, total.Branches, s.ref.Mispredicts, s.ref.Branches)
		}
	}
	decode := stageSeconds(t.spans, "decode")
	b.layers["trace.decode_mb_per_s"] = float64(payload) / 1e6 / decode
	b.layers["snap.bytes"] = float64(snapBytes)
	b.setSim(stageSeconds(t.spans, "replay"), branches)
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/trace"
)

func newSpillServer(t *testing.T, limits Limits, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(limits, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSpillDir(dir)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func chunksOf(t *testing.T, n, parts int) [][]byte {
	t.Helper()
	recs := testTrace(t, n).Records
	per := len(recs) / parts
	out := make([][]byte, parts)
	for i := 0; i < parts; i++ {
		end := (i + 1) * per
		if i == parts-1 {
			end = len(recs)
		}
		out[i] = encodeRecords(t, recs[i*per:end])
	}
	return out
}

// TestHibernationRestartBitIdentity is the service-level resume
// guarantee: stream half a trace at one server, "crash" it (no drain —
// the write-through spill after each chunk is all that survives, as
// after kill -9), start a fresh server on the same spill directory, and
// stream the rest. The final totals must be byte-for-byte what one
// uninterrupted server reports (scripts/snap_smoke.sh re-proves this
// across real processes and a real SIGKILL).
func TestHibernationRestartBitIdentity(t *testing.T) {
	chunks := chunksOf(t, 8000, 4)

	// The uninterrupted reference.
	_, ref := newTestServer(t, testLimits())
	createSession(t, ref.URL, "s", "cond", "gshare:budget=16KB")
	var want PredictResponse
	for _, c := range chunks {
		var status int
		want, status, _ = postChunk(t, ref.URL, "s", c, false)
		if status != http.StatusOK {
			t.Fatalf("reference chunk: status %d", status)
		}
	}

	dir := t.TempDir()
	first, ts1 := newSpillServer(t, testLimits(), dir)
	createSession(t, ts1.URL, "s", "cond", "gshare:budget=16KB")
	for _, c := range chunks[:2] {
		if _, status, _ := postChunk(t, ts1.URL, "s", c, false); status != http.StatusOK {
			t.Fatalf("first server chunk: status %d", status)
		}
	}
	if n := first.snapsSaved.Load(); n != 2 {
		t.Errorf("write-through spills = %d, want 2", n)
	}
	ts1.Close() // hard stop: no drain, no goodbye — only the spill files remain

	second, ts2 := newSpillServer(t, testLimits(), dir)
	var got PredictResponse
	for _, c := range chunks[2:] {
		var status int
		got, status, _ = postChunk(t, ts2.URL, "s", c, false)
		if status != http.StatusOK {
			t.Fatalf("restarted server chunk: status %d", status)
		}
	}
	if got.TotalBranches != want.TotalBranches ||
		got.TotalMispredicts != want.TotalMispredicts ||
		got.TotalRecords != want.TotalRecords ||
		got.TotalMissRate != want.TotalMissRate {
		t.Errorf("restart diverged: got %+v, want %+v", got, want)
	}
	if n := second.snapsRestored.Load(); n != 1 {
		t.Errorf("snapshots_restored = %d, want 1", n)
	}
	if n := second.rehydrateFailures.Load(); n != 0 {
		t.Errorf("rehydrate_failures = %d, want 0", n)
	}
}

func fetchSnapshot(t *testing.T, baseURL, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/sessions/" + id + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

func restoreSnapshot(t *testing.T, baseURL, id string, blob []byte) (int, Envelope) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/sessions/"+id+"/snapshot",
		"application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if resp.StatusCode >= 400 {
		ok := false
		if env, ok = DecodeEnvelope(raw); !ok {
			t.Fatalf("error response %q is not a v1 envelope", raw)
		}
	}
	return resp.StatusCode, env
}

// TestSnapshotRoutesRoundTrip drives the explicit snapshot API: a
// downloaded snapshot uploaded under a new ID resumes the stream
// bit-identically, uploading over a live ID conflicts, and a corrupted
// upload is a 400 CodeCorrupt that creates nothing.
func TestSnapshotRoutesRoundTrip(t *testing.T) {
	chunks := chunksOf(t, 6000, 2)
	_, ts := newTestServer(t, testLimits())

	createSession(t, ts.URL, "ref", "cond", "gshare:budget=16KB")
	for _, c := range chunks {
		if _, status, _ := postChunk(t, ts.URL, "ref", c, false); status != http.StatusOK {
			t.Fatalf("reference chunk: status %d", status)
		}
	}
	want, _ := getSessionInfo(t, ts.URL, "ref")

	createSession(t, ts.URL, "orig", "cond", "gshare:budget=16KB")
	if _, status, _ := postChunk(t, ts.URL, "orig", chunks[0], false); status != http.StatusOK {
		t.Fatalf("orig chunk: status %d", status)
	}
	blob, status := fetchSnapshot(t, ts.URL, "orig")
	if status != http.StatusOK {
		t.Fatalf("snapshot download: status %d", status)
	}

	if status, _ := restoreSnapshot(t, ts.URL, "orig", blob); status != http.StatusConflict {
		t.Errorf("restore over live session: status %d, want 409", status)
	}

	bad := bytes.Clone(blob)
	bad[len(bad)/3] ^= 0x20
	if status, env := restoreSnapshot(t, ts.URL, "copy", bad); status != http.StatusBadRequest || env.Code != CodeCorrupt {
		t.Errorf("corrupt restore: status %d code %q, want 400 %q", status, env.Code, CodeCorrupt)
	}
	if _, status := getSessionInfo(t, ts.URL, "copy"); status != http.StatusNotFound {
		t.Errorf("failed restore created a session (status %d)", status)
	}

	if status, _ := restoreSnapshot(t, ts.URL, "copy", blob); status != http.StatusCreated {
		t.Fatalf("restore: status %d, want 201", status)
	}
	if _, status, _ := postChunk(t, ts.URL, "copy", chunks[1], false); status != http.StatusOK {
		t.Fatalf("chunk after restore: status %d", status)
	}
	got, _ := getSessionInfo(t, ts.URL, "copy")
	if got.Branches != want.Branches || got.Mispredicts != want.Mispredicts ||
		got.Records != want.Records || got.MissRate != want.MissRate {
		t.Errorf("restored stream diverged: got %+v, want %+v", got, want)
	}
}

// TestEvictionSpillFaultDegradesGracefully wires the chaos snapshot
// fault into eviction: with every snapshot I/O failing, LRU eviction
// must simply drop the session — counted in rehydrate_failures, no
// stale spill file left to resurrect, no crash — and the server keeps
// answering.
func TestEvictionSpillFaultDegradesGracefully(t *testing.T) {
	limits := testLimits()
	limits.MaxSessions = 1
	dir := t.TempDir()
	s, ts := newSpillServer(t, limits, dir)
	in := chaos.New(chaos.Spec{Seed: 1, SnapP: 1})
	s.SetSnapFault(in.SnapFault)

	chunks := chunksOf(t, 2000, 1)
	createSession(t, ts.URL, "a", "cond", "gshare:budget=16KB")
	if _, status, _ := postChunk(t, ts.URL, "a", chunks[0], false); status != http.StatusOK {
		t.Fatalf("chunk under spill fault: status %d", status)
	}
	// The write-through spill failed; eviction's spill fails too.
	createSession(t, ts.URL, "b", "cond", "gshare:budget=16KB")

	// Session a is gone — dropped, not wedged: its next chunk is a clean
	// 404 (nothing usable on disk), and the server still serves b.
	if _, status, env := postChunk(t, ts.URL, "a", chunks[0], false); status != http.StatusNotFound {
		t.Fatalf("evicted-under-fault session: status %d (%+v), want 404", status, env)
	}
	if _, status, _ := postChunk(t, ts.URL, "b", chunks[0], false); status != http.StatusOK {
		t.Fatalf("survivor session: status %d", status)
	}
	if n := s.rehydrateFailures.Load(); n == 0 {
		t.Error("spill failures not counted in rehydrate_failures")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed spill left file %q behind", e.Name())
	}
	if got := in.Counts()[chaos.FaultSnap]; got == 0 {
		t.Error("chaos injector recorded no snap faults")
	}
}

// TestRehydrateCorruptSpillDropsFile pins rehydrate's fail-closed path:
// a damaged spill file is counted, deleted, and answered 404 — the
// client recreates from scratch rather than resuming wrong state.
func TestRehydrateCorruptSpillDropsFile(t *testing.T) {
	dir := t.TempDir()
	s, ts := newSpillServer(t, testLimits(), dir)
	chunks := chunksOf(t, 2000, 1)
	createSession(t, ts.URL, "a", "cond", "gshare:budget=16KB")
	if _, status, _ := postChunk(t, ts.URL, "a", chunks[0], false); status != http.StatusOK {
		t.Fatalf("chunk: status %d", status)
	}
	path := filepath.Join(dir, "a.vlps")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Force the live copy out so the next chunk must rehydrate.
	if !s.reg.remove("a") {
		t.Fatal("session a not live")
	}
	if _, status, _ := postChunk(t, ts.URL, "a", chunks[0], false); status != http.StatusNotFound {
		t.Fatalf("corrupt rehydrate: status %d, want 404", status)
	}
	if n := s.rehydrateFailures.Load(); n != 1 {
		t.Errorf("rehydrate_failures = %d, want 1", n)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt spill file not deleted (stat err %v)", err)
	}
}

// TestCreateResumesHibernatedSession pins the idempotent-create
// contract clients like vlpload rely on after a restart: re-creating a
// hibernated session with the same class and spec resumes it (201 with
// the accumulated totals) instead of clobbering the spilled state,
// while a different spec is the usual duplicate-ID conflict.
func TestCreateResumesHibernatedSession(t *testing.T) {
	dir := t.TempDir()
	chunks := chunksOf(t, 2000, 1)
	_, ts1 := newSpillServer(t, testLimits(), dir)
	createSession(t, ts1.URL, "a", "cond", "gshare:budget=16KB")
	want, status, _ := postChunk(t, ts1.URL, "a", chunks[0], false)
	if status != http.StatusOK {
		t.Fatalf("chunk: status %d", status)
	}
	ts1.Close()

	_, ts2 := newSpillServer(t, testLimits(), dir)
	info := createSession(t, ts2.URL, "a", "cond", "gshare:budget=16KB")
	if info.Branches != want.TotalBranches || info.Mispredicts != want.TotalMispredicts {
		t.Errorf("resumed create lost totals: got %+v, want %d/%d",
			info, want.TotalMispredicts, want.TotalBranches)
	}
	if _, status := tryCreateSession(t, ts2.URL, "b", "cond", "gshare:budget=16KB"); status != http.StatusCreated {
		t.Fatalf("fresh create: status %d", status)
	}

	// Same hibernated ID, different spec: conflict, spill left intact.
	_, ts3 := newSpillServer(t, testLimits(), dir)
	if _, status := tryCreateSession(t, ts3.URL, "a", "cond", "bimodal:budget=16KB"); status != http.StatusConflict {
		t.Errorf("spec-mismatch create: status %d, want 409", status)
	}
}

// TestDeleteRemovesSpillFile: an explicit DELETE forgets both the live
// session and its hibernated copy.
func TestDeleteRemovesSpillFile(t *testing.T) {
	dir := t.TempDir()
	_, ts := newSpillServer(t, testLimits(), dir)
	chunks := chunksOf(t, 2000, 1)
	createSession(t, ts.URL, "a", "cond", "gshare:budget=16KB")
	if _, status, _ := postChunk(t, ts.URL, "a", chunks[0], false); status != http.StatusOK {
		t.Fatalf("chunk: status %d", status)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/a", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "a.vlps")); !os.IsNotExist(err) {
		t.Errorf("delete left spill file behind (stat err %v)", err)
	}
	// Deleted means deleted: no transparent resurrection.
	if _, status, _ := postChunk(t, ts.URL, "a", chunks[0], false); status != http.StatusNotFound {
		t.Fatalf("chunk after delete: status %d, want 404", status)
	}
}

// statSpill returns the spill file's identity, failing when it is absent.
func statSpill(t *testing.T, dir, id string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, id+spillExt))
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// unchanged reports whether a spill file is the very file it was: same
// inode (a rewrite renames a fresh temp file over it) and same mtime.
func unchanged(before, after os.FileInfo) bool {
	return os.SameFile(before, after) && before.ModTime().Equal(after.ModTime())
}

// TestCleanHandoffWritesNothing pins that a state reaches disk once:
// with MaxSessions 1, evicting a session whose last chunk was written
// through, evicting one that was just rehydrated, and draining a clean
// one all leave its spill file untouched (same inode and mtime) and
// snapshots_saved where it was, and count in spills_skipped instead.
func TestCleanHandoffWritesNothing(t *testing.T) {
	limits := testLimits()
	limits.MaxSessions = 1
	dir := t.TempDir()
	s, ts := newSpillServer(t, limits, dir)
	chunks := chunksOf(t, 4000, 2)

	createSession(t, ts.URL, "a", "cond", "gshare:budget=16KB")
	want, status, _ := postChunk(t, ts.URL, "a", chunks[0], false)
	if status != http.StatusOK {
		t.Fatalf("chunk: status %d", status)
	}
	aFile := statSpill(t, dir, "a")
	saved := s.snapsSaved.Load()

	// LRU eviction after a write-through: a is clean.
	createSession(t, ts.URL, "b", "cond", "gshare:budget=16KB")
	if got := statSpill(t, dir, "a"); !unchanged(aFile, got) {
		t.Error("evicting a written-through session rewrote its spill file")
	}
	if n := s.snapsSaved.Load(); n != saved {
		t.Errorf("snapshots_saved %d -> %d on a clean eviction", saved, n)
	}
	if n := s.spillsSkipped.Load(); n != 1 {
		t.Errorf("spills_skipped = %d, want 1", n)
	}

	// Rehydrating a evicts b, which never ran a chunk: b is written.
	info, status := getSessionInfo(t, ts.URL, "a")
	if status != http.StatusOK || info.Branches != want.TotalBranches {
		t.Fatalf("rehydrate a: status %d, info %+v", status, info)
	}
	if n := s.snapsSaved.Load(); n != saved+1 {
		t.Errorf("snapshots_saved = %d, want %d (never-spilled b)", n, saved+1)
	}
	saved = s.snapsSaved.Load()
	bFile := statSpill(t, dir, "b")

	// a was just rehydrated from its file: evicting it again is clean,
	// and so is evicting the rehydrated b in turn.
	if _, status := getSessionInfo(t, ts.URL, "b"); status != http.StatusOK {
		t.Fatalf("rehydrate b: status %d", status)
	}
	if _, status := getSessionInfo(t, ts.URL, "a"); status != http.StatusOK {
		t.Fatalf("rehydrate a again: status %d", status)
	}
	if got := statSpill(t, dir, "a"); !unchanged(aFile, got) {
		t.Error("evicting a just-rehydrated session rewrote its spill file")
	}
	if got := statSpill(t, dir, "b"); !unchanged(bFile, got) {
		t.Error("evicting a just-rehydrated session rewrote its spill file")
	}

	// Drain: the one live session (a) is clean.
	s.spillAll()
	if got := statSpill(t, dir, "a"); !unchanged(aFile, got) {
		t.Error("draining a clean session rewrote its spill file")
	}
	if n := s.snapsSaved.Load(); n != saved {
		t.Errorf("snapshots_saved %d -> %d on clean hand-offs", saved, n)
	}
	if n := s.spillsSkipped.Load(); n != 4 {
		t.Errorf("spills_skipped = %d, want 4", n)
	}
	if m := s.MetricsReport().Data.(MetricsData); m.SpillsSkipped != 4 || m.SnapshotsSaved != saved {
		t.Errorf("metrics: spills_skipped %d snapshots_saved %d, want 4 and %d",
			m.SpillsSkipped, m.SnapshotsSaved, saved)
	}

	// A chunk makes a dirty again: its write-through replaces the file.
	if _, status, _ := postChunk(t, ts.URL, "a", chunks[1], false); status != http.StatusOK {
		t.Fatalf("second chunk: status %d", status)
	}
	if got := statSpill(t, dir, "a"); unchanged(aFile, got) {
		t.Error("write-through after a new chunk left the old spill file")
	}
}

// TestFailedSpillLeavesSessionDirty: a write-through spill that fails
// through the snapshot fault hook removes the file and resets the
// spilled generation to none, so the next eviction writes again and
// every chunk the client was answered survives.
func TestFailedSpillLeavesSessionDirty(t *testing.T) {
	limits := testLimits()
	limits.MaxSessions = 1
	dir := t.TempDir()
	s, ts := newSpillServer(t, limits, dir)
	var failing atomic.Bool
	s.SetSnapFault(func() error {
		if failing.Load() {
			return chaos.ErrSnapFault
		}
		return nil
	})
	chunks := chunksOf(t, 4000, 2)

	createSession(t, ts.URL, "a", "cond", "gshare:budget=16KB")
	if _, status, _ := postChunk(t, ts.URL, "a", chunks[0], false); status != http.StatusOK {
		t.Fatalf("chunk: status %d", status)
	}
	failing.Store(true)
	want, status, _ := postChunk(t, ts.URL, "a", chunks[1], false)
	if status != http.StatusOK {
		t.Fatalf("chunk under spill fault: status %d", status)
	}
	failing.Store(false)
	if _, err := os.Stat(filepath.Join(dir, "a.vlps")); !os.IsNotExist(err) {
		t.Fatalf("failed spill left a file (stat err %v)", err)
	}
	if n := s.rehydrateFailures.Load(); n != 1 {
		t.Errorf("rehydrate_failures = %d, want 1", n)
	}
	sess, ok := s.reg.get("a")
	if !ok {
		t.Fatal("session a not live")
	}
	sess.spillMu.Lock()
	spilled := sess.spilledGen
	sess.spillMu.Unlock()
	if spilled != noGen {
		t.Errorf("spilled generation after a failed spill = %d, want none", spilled)
	}

	saved := s.snapsSaved.Load()
	createSession(t, ts.URL, "b", "cond", "gshare:budget=16KB") // evicts a
	if n := s.snapsSaved.Load(); n != saved+1 {
		t.Errorf("snapshots_saved = %d, want %d (the eviction of dirty a)", n, saved+1)
	}
	if n := s.spillsSkipped.Load(); n != 0 {
		t.Errorf("spills_skipped = %d, want 0", n)
	}
	info, status := getSessionInfo(t, ts.URL, "a")
	if status != http.StatusOK {
		t.Fatalf("rehydrate a: status %d", status)
	}
	if info.Records != want.TotalRecords || info.Branches != want.TotalBranches ||
		info.Mispredicts != want.TotalMispredicts {
		t.Errorf("rehydrated a %+v, want the answered totals %+v", info, want)
	}
}

// TestCanceledReplayMarksDirty: a replay canceled part-way changed the
// predictor even though its counts were not folded in, so the session
// is no longer the state its spill file holds and its eviction writes.
func TestCanceledReplayMarksDirty(t *testing.T) {
	limits := testLimits()
	limits.MaxSessions = 1
	dir := t.TempDir()
	s, ts := newSpillServer(t, limits, dir)
	chunks := chunksOf(t, 2000, 1)
	createSession(t, ts.URL, "a", "cond", "gshare:budget=16KB")
	if _, status, _ := postChunk(t, ts.URL, "a", chunks[0], false); status != http.StatusOK {
		t.Fatalf("chunk: status %d", status)
	}
	aFile := statSpill(t, dir, "a")
	saved := s.snapsSaved.Load()

	sess, ok := s.reg.get("a")
	if !ok {
		t.Fatal("session a not live")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Longer than the kernel's cancellation stride, so the replay runs
	// part of the chunk and then stops.
	if _, err := sess.predict(ctx, testTrace(t, 100000)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled replay: err = %v, want context.Canceled", err)
	}

	createSession(t, ts.URL, "b", "cond", "gshare:budget=16KB") // evicts a
	if n := s.snapsSaved.Load(); n != saved+1 {
		t.Errorf("snapshots_saved = %d, want %d: a canceled replay left the session clean", n, saved+1)
	}
	if got := statSpill(t, dir, "a"); unchanged(aFile, got) {
		t.Error("eviction after a canceled replay left the old spill file")
	}
}

// TestChunkRacingEvictionSpill drives a chunk between an eviction
// spill's capture and its rename. Spills of one session run one at a
// time, so the chunk's write-through lands after the eviction's older
// state, never under it: rehydrating the session gives exactly the
// totals of the answered chunks.
func TestChunkRacingEvictionSpill(t *testing.T) {
	dir := t.TempDir()
	s, ts := newSpillServer(t, testLimits(), dir)
	chunks := chunksOf(t, 4000, 2)
	createSession(t, ts.URL, "a", "cond", "gshare:budget=16KB")
	if _, status, _ := postChunk(t, ts.URL, "a", chunks[0], false); status != http.StatusOK {
		t.Fatalf("chunk: status %d", status)
	}
	sess, ok := s.reg.get("a")
	if !ok {
		t.Fatal("session a not live")
	}
	buf, err := trace.Decode(chunks[1])
	if err != nil {
		t.Fatal(err)
	}
	// Make a dirty without a write-through, as a chunk whose spill
	// failed would, so the eviction below has something to write.
	if _, err := sess.predict(context.Background(), buf); err != nil {
		t.Fatal(err)
	}

	// The eviction spill captures, then parks in the fault hook (which
	// runs between capture and write) until the racing chunk has
	// replayed. It then gives the chunk's write-through up to 250ms to
	// land first: with serialised spills that write waits for this one
	// and the bound simply runs out; without them the chunk's newer
	// state would land first and this older capture on top of it.
	captured := make(chan struct{})
	replayed := make(chan struct{})
	chunkSpilled := make(chan struct{})
	var calls atomic.Int32
	s.SetSnapFault(func() error {
		if calls.Add(1) == 1 {
			close(captured)
			<-replayed
			select {
			case <-chunkSpilled:
			case <-time.After(250 * time.Millisecond):
			}
		}
		return nil
	})
	if !s.reg.remove("a") {
		t.Fatal("session a not live")
	}
	evicted := make(chan struct{})
	go func() {
		defer close(evicted)
		s.spill(sess, "lru")
	}()
	<-captured
	// The racing chunk, as handlePredict runs it: replay, then write
	// through.
	if _, err := sess.predict(context.Background(), buf); err != nil {
		t.Fatal(err)
	}
	want := sess.info()
	close(replayed)
	s.spill(sess, "chunk")
	close(chunkSpilled)
	<-evicted

	got, status := getSessionInfo(t, ts.URL, "a")
	if status != http.StatusOK {
		t.Fatalf("rehydrate a: status %d", status)
	}
	if got.Chunks != want.Chunks || got.Records != want.Records ||
		got.Branches != want.Branches || got.Mispredicts != want.Mispredicts {
		t.Errorf("rehydrated totals %d chunks %d/%d, want the answered %d chunks %d/%d",
			got.Chunks, got.Mispredicts, got.Branches, want.Chunks, want.Mispredicts, want.Branches)
	}
	if n := s.snapsSaved.Load(); n != 3 {
		t.Errorf("snapshots_saved = %d, want 3", n)
	}
}

// TestEvictionSpillDuringReplayCapturesWholeChunk parks a chunk between
// its replay and its totals update while another client's create
// evicts the session. The eviction spill must wait for the whole chunk:
// a capture in between would write the post-chunk predictor with the
// pre-chunk totals at the post-chunk generation, and the chunk's
// write-through would then skip it as clean. Rehydrating the session
// gives exactly the answered totals.
func TestEvictionSpillDuringReplayCapturesWholeChunk(t *testing.T) {
	limits := testLimits()
	limits.MaxSessions = 1
	dir := t.TempDir()
	s, ts := newSpillServer(t, limits, dir)
	chunks := chunksOf(t, 4000, 2)
	createSession(t, ts.URL, "a", "cond", "gshare:budget=16KB")
	if _, status, _ := postChunk(t, ts.URL, "a", chunks[0], false); status != http.StatusOK {
		t.Fatalf("chunk: status %d", status)
	}
	sess, ok := s.reg.get("a")
	if !ok {
		t.Fatal("session a not live")
	}

	created := make(chan int, 1)
	sess.mu.Lock()
	sess.testHookReplayed = func() {
		sess.testHookReplayed = nil
		body, _ := json.Marshal(SessionRequest{ID: "b", Class: "cond", Spec: "gshare:budget=16KB"})
		go func() {
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				created <- 0
				return
			}
			resp.Body.Close()
			created <- resp.StatusCode
		}()
		// Wait for the eviction, then give its spill time to reach the
		// capture.
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if live := s.reg.snapshot(); len(live) == 1 && live[0].ID == "b" {
				break
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
	}
	sess.mu.Unlock()

	want, status, _ := postChunk(t, ts.URL, "a", chunks[1], false)
	if status != http.StatusOK {
		t.Fatalf("racing chunk: status %d", status)
	}
	if code := <-created; code != http.StatusCreated {
		t.Fatalf("create b: status %d", code)
	}
	got, status := getSessionInfo(t, ts.URL, "a")
	if status != http.StatusOK {
		t.Fatalf("rehydrate a: status %d", status)
	}
	if got.Chunks != 2 || got.Records != want.TotalRecords ||
		got.Branches != want.TotalBranches || got.Mispredicts != want.TotalMispredicts {
		t.Errorf("rehydrated %d chunks %d records %d/%d, want 2 chunks and the answered %d records %d/%d",
			got.Chunks, got.Records, got.Mispredicts, got.Branches,
			want.TotalRecords, want.TotalMispredicts, want.TotalBranches)
	}
}

// TestConcurrentRehydrateFailureKeepsClaimedFile races two requests for
// one hibernated session while every load after the first fails through
// the snapshot fault hook. The loser must not delete the file the
// winner was revived from and still counts as holding its state: a
// later clean eviction of the winner writes nothing, so the file is the
// session's only copy.
func TestConcurrentRehydrateFailureKeepsClaimedFile(t *testing.T) {
	limits := testLimits()
	limits.MaxSessions = 1
	dir := t.TempDir()
	s, ts := newSpillServer(t, limits, dir)
	chunks := chunksOf(t, 4000, 1)
	createSession(t, ts.URL, "a", "cond", "gshare:budget=16KB")
	want, status, _ := postChunk(t, ts.URL, "a", chunks[0], false)
	if status != http.StatusOK {
		t.Fatalf("chunk: status %d", status)
	}
	createSession(t, ts.URL, "b", "cond", "gshare:budget=16KB") // evicts a
	s.spillAll()                                                // b is clean too

	first := make(chan struct{})
	var calls atomic.Int32
	s.SetSnapFault(func() error {
		if calls.Add(1) == 1 {
			close(first)
			// Hold the winner's load until the second request is in.
			time.Sleep(50 * time.Millisecond)
			return nil
		}
		return chaos.ErrSnapFault
	})
	statuses := make(chan int, 2)
	get := func() {
		resp, err := http.Get(ts.URL + "/v1/sessions/a")
		if err != nil {
			statuses <- 0
			return
		}
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go get()
	<-first
	go get()
	for i := 0; i < 2; i++ {
		if code := <-statuses; code != http.StatusOK {
			t.Errorf("concurrent rehydrate: status %d, want 200", code)
		}
	}
	s.SetSnapFault(nil)
	if n := s.rehydrateFailures.Load(); n != 0 {
		t.Errorf("rehydrate_failures = %d, want 0", n)
	}

	createSession(t, ts.URL, "c", "cond", "gshare:budget=16KB") // evicts a
	got, status := getSessionInfo(t, ts.URL, "a")
	if status != http.StatusOK {
		t.Fatalf("rehydrate a after its eviction: status %d", status)
	}
	if got.Records != want.TotalRecords || got.Branches != want.TotalBranches ||
		got.Mispredicts != want.TotalMispredicts {
		t.Errorf("rehydrated a %+v, want the answered totals %+v", got, want)
	}
}

// TestDropSpillFileResetsLiveCopy: when a failed rehydrate deletes a
// spill file that a live copy of the ID (registered by a create or an
// uploaded restore meanwhile) has written through, the live copy no
// longer counts as clean, so its next eviction writes.
func TestDropSpillFileResetsLiveCopy(t *testing.T) {
	limits := testLimits()
	limits.MaxSessions = 1
	dir := t.TempDir()
	s, ts := newSpillServer(t, limits, dir)
	chunks := chunksOf(t, 4000, 1)
	createSession(t, ts.URL, "a", "cond", "gshare:budget=16KB")
	want, status, _ := postChunk(t, ts.URL, "a", chunks[0], false)
	if status != http.StatusOK {
		t.Fatalf("chunk: status %d", status)
	}
	s.dropSpillFile("a")
	if _, err := os.Stat(filepath.Join(dir, "a"+spillExt)); !os.IsNotExist(err) {
		t.Fatalf("spill file still there (stat err %v)", err)
	}
	createSession(t, ts.URL, "b", "cond", "gshare:budget=16KB") // evicts a
	if n := s.spillsSkipped.Load(); n != 0 {
		t.Errorf("spills_skipped = %d, want 0: the eviction of a skipped a deleted file", n)
	}
	got, status := getSessionInfo(t, ts.URL, "a")
	if status != http.StatusOK {
		t.Fatalf("rehydrate a: status %d", status)
	}
	if got.Records != want.TotalRecords || got.Branches != want.TotalBranches {
		t.Errorf("rehydrated a %+v, want the answered totals %+v", got, want)
	}
}

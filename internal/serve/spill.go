package serve

import (
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/snap"
)

// Session hibernation: when a spill directory is configured
// (SetSpillDir, cmd/vlpserve's -spill-dir), the server persists each
// session as a vlps/v1 snapshot file and transparently rehydrates it on
// the next chunk. Spills happen write-through — after every replayed
// chunk, via runx atomic writes — so the on-disk snapshot is always the
// state as of the last answered chunk, and a kill -9 between requests
// loses nothing: a restarted server with the same -spill-dir resumes
// every session bit-identically (scripts/snap_smoke.sh pins this).
// Eviction (LRU and idle-TTL), drain, and the explicit snapshot routes
// reuse the same path.
//
// A state reaches disk once. Every session carries a state generation
// that goes up on every replayed chunk (canceled or not) and every
// restore, and remembers which generation its spill file holds: the
// one it last wrote, or the one it was just rehydrated from. A chunk's
// replay, generation and totals change together under the replay
// lock, so one generation is one state. A session's spills run one at
// a time, so the last rename always holds its newest captured state,
// and a spill finding the file already at the current generation
// writes nothing (spills_skipped). So an eviction or drain after a
// write-through or a rehydrate costs no capture, no fsync and no
// rename. Rehydrations run one at a time, so a failed one never
// deletes a file another has just revived from. The generation only describes files
// this session object wrote or loaded; a second copy of the same ID
// (the open eviction hand-off window in ROADMAP.md) is not tracked.
//
// Failure policy: hibernation is a cache in front of correctness, never
// a dependency of it. A failed spill write deletes the (now stale)
// file, resets the spilled generation to none (so the next hand-off
// writes again), and counts a rehydrate_failure; a damaged or
// mismatched spill file on rehydrate is deleted, counted, and answered
// as "no such session" so the client recreates from scratch. No
// snapshot failure ever crashes the server or corrupts a live session.

// spillExt is the spill file suffix, one file per session ID. Session
// IDs are validated path-safe at creation (ParseSessionRequest), so the
// ID itself is the file name.
const spillExt = ".vlps"

// SetSpillDir enables session hibernation under dir. Call before
// Handler/Serve; empty (the default) disables spilling entirely.
func (s *Server) SetSpillDir(dir string) { s.spillDir = dir }

// SetSnapFault installs a fault hook on every snapshot file operation:
// when it returns a non-nil error the spill or rehydrate fails as if
// the disk had. cmd/vlpserve mounts the chaos injector's snapshot fault
// here; the graceful-degradation tests drive it directly.
func (s *Server) SetSnapFault(f func() error) { s.snapFault = f }

func (s *Server) spillPath(id string) string {
	return filepath.Join(s.spillDir, id+spillExt)
}

// spill hibernates one session to its spill file, unless the file
// already holds the session's current generation: then the hand-off is
// clean, counted in spills_skipped, and writes nothing. Best-effort: on
// any failure the stale spill file is removed (resurrecting older state
// would silently violate bit-identity), the session's spilled generation
// goes back to none so its next hand-off writes again, the failure is
// counted, and the server carries on.
func (s *Server) spill(sess *session, reason string) {
	if s.spillDir == "" {
		return
	}
	sess.spillMu.Lock()
	defer sess.spillMu.Unlock()
	sn, gen, err := sess.snapshot(sess.spilledGen)
	if err == nil && sn == nil {
		s.spillsSkipped.Add(1)
		return
	}
	path := s.spillPath(sess.ID)
	if err == nil && s.snapFault != nil {
		err = s.snapFault()
	}
	if err == nil {
		err = sn.SaveFile(path)
	}
	if err != nil {
		sess.spilledGen = noGen
		s.rehydrateFailures.Add(1)
		os.Remove(path)
		s.log.Progressf("serve: session %q spill (%s) failed, dropping: %v", sess.ID, reason, err)
		return
	}
	sess.spilledGen = gen
	s.snapsSaved.Add(1)
}

// rehydrate revives a hibernated session from its spill file, returning
// false when there is nothing (or nothing usable) to revive — the
// caller answers 404 and the client recreates the session. A usable
// snapshot re-enters the registry exactly as a live session would,
// displacing the LRU session if the registry is full.
//
// Rehydrations run one at a time from the registry check to the
// registration (rehydrateMu), so a request racing a rehydrate of the
// same ID finds the revived session live instead of loading the file
// again, and a failed rehydrate never deletes a file another one has
// just claimed as holding its state.
func (s *Server) rehydrate(id string) (*session, bool) {
	if s.spillDir == "" {
		return nil, false
	}
	s.rehydrateMu.Lock()
	if cur, ok := s.reg.get(id); ok {
		s.rehydrateMu.Unlock()
		return cur, true
	}
	sess, err := s.loadSpill(id)
	if errors.Is(err, os.ErrNotExist) {
		s.rehydrateMu.Unlock()
		return nil, false // never hibernated: a plain unknown session
	}
	if err != nil {
		s.dropSpillFile(id)
		s.rehydrateMu.Unlock()
		s.rehydrateFailures.Add(1)
		s.log.Progressf("serve: session %q rehydrate failed, dropping spill file: %v", id, err)
		return nil, false
	}
	sess.spilledGen = sess.gen // the file holds exactly the restored state
	evicted, err := s.reg.add(sess)
	s.rehydrateMu.Unlock()
	if err != nil {
		// A create or an uploaded restore registered the same ID
		// meanwhile; use the registered one.
		if cur, ok := s.reg.get(id); ok {
			return cur, true
		}
		return nil, false
	}
	if evicted != nil {
		s.spill(evicted, "lru")
		s.log.Progressf("serve: session %q evicted (LRU) for rehydrated %q", evicted.ID, id)
	}
	s.snapsRestored.Add(1)
	s.log.Progressf("serve: session %q rehydrated (%d records so far)", id, sess.info().Records)
	return sess, true
}

// loadSpill builds a session from its spill file: os.ErrNotExist when the
// session never hibernated, any other error when the file is unusable.
func (s *Server) loadSpill(id string) (*session, error) {
	if s.snapFault != nil {
		if err := s.snapFault(); err != nil {
			return nil, err
		}
	}
	sn, err := snap.LoadFile(s.spillPath(id))
	if err != nil {
		return nil, err
	}
	class, spec, err := ParseSessionRequest(SessionRequest{ID: id, Class: sn.Class, Spec: sn.Spec})
	if err != nil {
		return nil, err
	}
	sess, err := newSession(id, class, spec)
	if err != nil {
		return nil, err
	}
	if err := sess.restoreFrom(sn); err != nil {
		return nil, err
	}
	return sess, nil
}

// dropSpillFile removes an unusable spill file. A live copy of the ID,
// registered by a create or an uploaded restore while the file was
// being loaded, may have written it through since; its spilled
// generation goes back to none, so its next hand-off writes again.
func (s *Server) dropSpillFile(id string) {
	os.Remove(s.spillPath(id))
	if cur, ok := s.reg.get(id); ok {
		cur.spillMu.Lock()
		cur.spilledGen = noGen
		cur.spillMu.Unlock()
	}
}

// lookup finds a live session or transparently rehydrates a hibernated
// one. Every session-addressed route resolves through it.
func (s *Server) lookup(id string) (*session, bool) {
	if sess, ok := s.reg.get(id); ok {
		return sess, true
	}
	return s.rehydrate(id)
}

// handleSnapshotGet serves GET /v1/sessions/{id}/snapshot: the
// session's current state as a downloadable vlps/v1 snapshot. The
// same bytes POST to the restore route — on this server after a
// delete, or on a different server entirely.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.clientErrs.Add(1)
		writeJSON(w, http.StatusNotFound, Envelope{Code: CodeNotFound, Message: "no such session"})
		return
	}
	sn, _, err := sess.snapshot(noGen)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sess.touch()
	s.snapsSaved.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="`+sess.ID+spillExt+`"`)
	_, _ = w.Write(sn.Encode())
}

// handleSnapshotRestore serves POST /v1/sessions/{id}/snapshot: create
// session {id} from an uploaded snapshot, resuming exactly where the
// snapshot was taken. The ID must be free — restoring over a live
// session is a 409, like creating one. A damaged upload is a 400
// (CodeCorrupt), a snapshot whose spec no longer parses a 400
// (CodeInvalid); neither perturbs any live session.
func (s *Server) handleSnapshotRestore(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes))
	if err != nil {
		s.writeError(w, err)
		return
	}
	sn, err := snap.Decode(body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	class, spec, err := ParseSessionRequest(SessionRequest{ID: id, Class: sn.Class, Spec: sn.Spec})
	if err != nil {
		s.writeError(w, err)
		return
	}
	sess, err := newSession(id, class, spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if err := sess.restoreFrom(sn); err != nil {
		s.writeError(w, err)
		return
	}
	evicted, err := s.reg.add(sess)
	if err != nil {
		s.clientErrs.Add(1)
		writeJSON(w, http.StatusConflict, Envelope{Code: CodeConflict, Message: err.Error()})
		return
	}
	if evicted != nil {
		s.spill(evicted, "lru")
		s.log.Progressf("serve: session %q evicted (LRU) for restored %q", evicted.ID, sess.ID)
	}
	s.snapsRestored.Add(1)
	s.spill(sess, "restore") // write through so the restored state survives a crash
	s.log.Progressf("serve: session %q restored from uploaded snapshot: %s %s",
		sess.ID, sn.Class, sn.Spec)
	writeJSON(w, http.StatusCreated, sess.info())
}

// spillAll hibernates every live session — the drain path, after
// in-flight requests have finished.
func (s *Server) spillAll() {
	if s.spillDir == "" {
		return
	}
	for _, sess := range s.reg.snapshot() {
		s.spill(sess, "drain")
	}
}

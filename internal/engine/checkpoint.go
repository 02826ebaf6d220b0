package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bpred"
	"repro/internal/bpred/state"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/trace"
)

// Column replay checkpointing: when Config.SnapDir is set, a fused
// column persists every job predictor's state plus the replay position
// and partial counts after each segment of the trace. A re-run of the
// same column — the requeue of a dead sweep worker's in-flight cell, a
// restarted vlpserve with the same -snapdir — restores the newest valid
// checkpoint and replays only the remaining records; the results are
// bit-identical to an uninterrupted pass because predictors are
// deterministic sequential state machines and segment counts add
// (sim's segmented-replay tests pin that property).
//
// The checkpoint is one snap container: Class "column", Spec the
// column's identity (class, benchmark, column id, every job predictor's
// name in job order), Meta the replay position and per-job counts,
// State the per-job predictor states. A missing, damaged, or mismatched
// checkpoint is ignored — the column simply replays from record zero —
// and a finished column deletes its file, so checkpoints only ever
// shorten work, never change results.

// checkpointClass labels column checkpoints inside the snap container.
const checkpointClass = "column"

// checkpointStride is how many records replay between checkpoints. A
// test hook: production keeps it large so checkpoint encoding stays
// invisible next to replay cost.
var checkpointStride = 1 << 20

// columnCheckpointKey names the column's content: anything that could
// change the replay invalidates the key, so a stale checkpoint can
// never be restored into a different column. Predictor names encode
// their configuration (budget, selector, lengths), and the cell key
// ("class|trace|column-id") scopes the class, trace and cell set
// exactly as the engine's memoization does.
func columnCheckpointKey(cell Key, jobs []sim.Job) string {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Pred().Name()
	}
	return cell.String() + "|" + strings.Join(names, ";")
}

// checkpointPath maps a column key to its file in SnapDir.
func checkpointPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, "col_"+hex.EncodeToString(sum[:8])+".vlps")
}

// encodeCheckpoint captures every job's state and the replay position
// into a snap container.
func encodeCheckpoint(key string, jobs []sim.Job, consumed int, results []sim.Result) (*snap.Snapshot, error) {
	var meta bytes.Buffer
	me := state.NewEncoder(&meta)
	me.Int(consumed)
	me.Int(len(jobs))
	for i := range results {
		me.U64(uint64(results[i].Branches))
		me.U64(uint64(results[i].Mispredicts))
	}
	if err := me.Err(); err != nil {
		return nil, err
	}
	var blob bytes.Buffer
	be := state.NewEncoder(&blob)
	for _, j := range jobs {
		p := j.Pred()
		var st bytes.Buffer
		if err := p.(bpred.StateCodec).SaveState(&st); err != nil {
			return nil, fmt.Errorf("engine: checkpointing %s: %w", p.Name(), err)
		}
		be.Bytes(st.Bytes())
	}
	if err := be.Err(); err != nil {
		return nil, err
	}
	return &snap.Snapshot{
		Class: checkpointClass,
		Spec:  key,
		Meta:  meta.Bytes(),
		State: blob.Bytes(),
	}, nil
}

// restoreCheckpoint loads the checkpoint at path into the freshly built
// jobs, returning the replay position and per-job base counts. Any
// failure — missing file, damage, key mismatch, state that doesn't fit
// the predictors — returns consumed 0: the caller replays from record
// zero, which is always correct.
func restoreCheckpoint(path, key string, jobs []sim.Job, maxRecords int) (consumed int, base []sim.Result, ok bool) {
	s, err := snap.LoadFile(path)
	if err != nil {
		return 0, nil, false
	}
	if err := s.CheckSpec(checkpointClass, key); err != nil {
		return 0, nil, false
	}
	md := state.NewDecoder(bytes.NewReader(s.Meta))
	consumed = md.Int()
	n := md.Int()
	if md.Err() != nil || n != len(jobs) || consumed < 0 || consumed > maxRecords {
		return 0, nil, false
	}
	base = make([]sim.Result, len(jobs))
	for i := range base {
		base[i].Branches = int64(md.U64())
		base[i].Mispredicts = int64(md.U64())
	}
	if md.Err() != nil {
		return 0, nil, false
	}
	bd := state.NewDecoder(bytes.NewReader(s.State))
	for _, j := range jobs {
		blob := bd.Field(len(s.State))
		if bd.Err() != nil {
			return 0, nil, false
		}
		sc, isCodec := j.Pred().(bpred.StateCodec)
		if !isCodec {
			return 0, nil, false
		}
		if err := sc.LoadState(bytes.NewReader(blob)); err != nil {
			return 0, nil, false
		}
	}
	return consumed, base, true
}

// checkpointable reports whether every column participant can
// externalize its state. Columns with a stateless participant fall
// back to plain uncheckpointed replay.
func checkpointable(jobs []sim.Job) bool {
	for _, j := range jobs {
		if _, ok := j.Pred().(bpred.StateCodec); !ok {
			return false
		}
	}
	return true
}

// runColumnCheckpointed replays the column with checkpoint/resume over
// SnapDir. Checkpoint writes are best-effort (a failed write never
// fails the run); restore is trust-but-verify (a bad checkpoint is
// ignored). On a clean finish the checkpoint file is removed.
func (e *Engine) runColumnCheckpointed(ctx context.Context, cell Key, jobs []sim.Job, buf *trace.Buffer) []sim.Result {
	key := columnCheckpointKey(cell, jobs)
	path := checkpointPath(e.cfg.SnapDir, key)
	consumed, base, resumed := restoreCheckpoint(path, key, jobs, buf.Len())
	if resumed {
		e.resumedRecords.Add(int64(consumed))
	} else {
		base = make([]sim.Result, len(jobs))
	}
	results := sim.RunMany(ctx, jobs, trace.NewBuffer(buf.Records[consumed:]), sim.Options{
		Stride: checkpointStride,
		Checkpoint: func(n int, partial []sim.Result) error {
			totals := make([]sim.Result, len(partial))
			for i := range partial {
				totals[i].Branches = partial[i].Branches + base[i].Branches
				totals[i].Mispredicts = partial[i].Mispredicts + base[i].Mispredicts
			}
			cp, err := encodeCheckpoint(key, jobs, consumed+n, totals)
			if err != nil {
				return nil // unstateful mid-run state: skip this checkpoint
			}
			// Best-effort: a full disk or injected fault must not fail
			// the measurement, it only loses resumability.
			_ = cp.SaveFile(path)
			return nil
		},
	})
	clean := true
	for i := range results {
		results[i].Branches += base[i].Branches
		results[i].Mispredicts += base[i].Mispredicts
		clean = clean && results[i].Err == nil
	}
	if clean {
		os.Remove(path)
	}
	return results
}

package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/faultfs"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// The crash-point sweep: enumerate every filesystem operation of a fixed
// register → mutate → checkpoint → mutate workload, then re-run the
// workload in a subprocess once per state-changing operation with a fault
// rule that kills the process right before (or, for WAL writes, halfway
// through) that operation. After each kill the parent recovers the
// directory with the real filesystem and asserts the durability
// invariants:
//
//   - recovery itself never fails — a crash may lose unacknowledged work,
//     never the store's ability to start;
//   - every acknowledged batch survives (recovered epoch >= last acked);
//   - the recovered graph is byte-equal to the control replay at the
//     recovered epoch; and
//   - a ReuseSamples solve on the recovered graph is bit-identical to the
//     same solve on the unkilled control at that epoch.
//
// The workload must stay fully deterministic and single-threaded: the
// subprocess relies on replaying the identical operation sequence.

const (
	sweepGraphSeed  = 7
	sweepRNGSeed    = 21
	sweepBatchSize  = 4
	sweepPreBatches = 3 // committed before the checkpoint
	sweepPostBatch  = 2 // committed after the checkpoint
	sweepFinalEpoch = sweepPreBatches + sweepPostBatch
)

func sweepGraph() *graph.Graph { return testGraph(40, 150, sweepGraphSeed) }

// sweepAck appends an acknowledged epoch to the ack file through the REAL
// filesystem: the ack channel stands in for the HTTP 200 the serving layer
// would send and must never be subject to injected faults.
func sweepAck(path string, epoch uint64) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(f, "%d\n", epoch)
	if err := f.Sync(); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
}

// runSweepWorkload executes the deterministic workload against fs, acking
// each durable step to ackPath. Any step may crash the process (via an
// injected crash rule) or fail with an injected error.
func runSweepWorkload(fs faultfs.FS, dir, ackPath string) error {
	st, err := Open(dir, Config{Fsync: FsyncAlways, FS: fs})
	if err != nil {
		return err
	}
	g := sweepGraph()
	gs, err := st.Create("g", g, 0, "sweep", "TR")
	if err != nil {
		return err
	}
	sweepAck(ackPath, 0)
	live := dynamic.New(g, dynamic.Config{})
	r := rng.New(sweepRNGSeed)
	commit := func() error {
		muts := randomBatch(live, sweepBatchSize, r)
		batch, err := dynamic.EncodeBatch(nil, muts)
		if err != nil {
			return err
		}
		info, err := live.Commit(muts)
		if err != nil {
			return err
		}
		if err := gs.Append(context.Background(), info.Epoch, batch); err != nil {
			return err
		}
		sweepAck(ackPath, info.Epoch) // FsyncAlways: the append is on disk
		return nil
	}
	for i := 0; i < sweepPreBatches; i++ {
		if err := commit(); err != nil {
			return err
		}
	}
	snap, epoch := live.Snapshot()
	gen, err := gs.BeginCheckpoint(context.Background())
	if err != nil {
		return err
	}
	if err := gs.CompleteCheckpoint(context.Background(), gen, snap, epoch); err != nil {
		return err
	}
	for i := 0; i < sweepPostBatch; i++ {
		if err := commit(); err != nil {
			return err
		}
	}
	return st.Close()
}

// sweepReplay rebuilds the control graph at each epoch 0..sweepFinalEpoch
// by replaying the workload's deterministic batch sequence in memory.
func sweepReplay() map[uint64]*graph.Graph {
	live := dynamic.New(sweepGraph(), dynamic.Config{})
	r := rng.New(sweepRNGSeed)
	out := make(map[uint64]*graph.Graph, sweepFinalEpoch+1)
	snap, _ := live.Snapshot()
	out[0] = snap
	for e := uint64(1); e <= sweepFinalEpoch; e++ {
		muts := randomBatch(live, sweepBatchSize, r)
		if _, err := live.Commit(muts); err != nil {
			panic(err)
		}
		snap, _ := live.Snapshot()
		out[e] = snap
	}
	return out
}

// sweepSolve runs the reference ReuseSamples solve whose result must be
// bit-identical between a recovered graph and the unkilled control.
func sweepSolve(g *graph.Graph) core.Result {
	sess := core.NewSession(g, core.DiffusionIC, 1)
	res, err := sess.Solve(context.Background(), []graph.V{1, 3, 5}, 3, core.GreedyReplace, core.Options{
		Theta:        200,
		MCSRounds:    50,
		Seed:         42,
		Workers:      1,
		ReuseSamples: true,
	})
	if err != nil {
		panic(err)
	}
	return res
}

// sweepMutatingOps are the operation kinds that change on-disk state; a
// crash immediately before a read-only op is indistinguishable from a
// crash before the next state-changing one, so only these become sites.
var sweepMutatingOps = map[faultfs.Op]bool{
	faultfs.OpCreate:    true,
	faultfs.OpOpenFile:  true,
	faultfs.OpRename:    true,
	faultfs.OpRemove:    true,
	faultfs.OpRemoveAll: true,
	faultfs.OpMkdirAll:  true,
	faultfs.OpWriteFile: true,
	faultfs.OpWrite:     true,
	faultfs.OpSync:      true,
	faultfs.OpTruncate:  true,
}

type sweepSite struct {
	info    faultfs.OpInfo
	mode    faultfs.Mode
	op      faultfs.Op
	pathSub string
	nth     int64
}

// TestCrashPointSweepChild is the subprocess body; the parent launches it
// with the crash rule in the environment. It is skipped in normal runs.
func TestCrashPointSweepChild(t *testing.T) {
	if os.Getenv("IMIN_SWEEP_CHILD") != "1" {
		t.Skip("crash-sweep subprocess; driven by TestCrashPointSweep")
	}
	nth, err := strconv.ParseInt(os.Getenv("IMIN_SWEEP_NTH"), 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad IMIN_SWEEP_NTH:", err)
		os.Exit(2)
	}
	mode := faultfs.ModeCrashBefore
	if os.Getenv("IMIN_SWEEP_MODE") == "torn" {
		mode = faultfs.ModeTornWrite
	}
	inj := faultfs.NewInjector(nil)
	inj.SetRules(faultfs.Rule{
		Op:           faultfs.Op(os.Getenv("IMIN_SWEEP_OP")),
		PathContains: os.Getenv("IMIN_SWEEP_PATHSUB"),
		Nth:          int(nth),
		Mode:         mode,
	})
	dir := os.Getenv("IMIN_SWEEP_DIR")
	err = runSweepWorkload(inj, filepath.Join(dir, "state"), filepath.Join(dir, "acked"))
	// Reaching this line means the crash rule never fired: the subprocess
	// replayed a different operation sequence than the parent enumerated.
	fmt.Fprintf(os.Stderr, "workload finished without crashing (err=%v)\n", err)
	os.Exit(3)
}

func TestCrashPointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess-per-site sweep; skipped with -short")
	}

	// Control: the unkilled workload must succeed outright, and its
	// recovered state must match the in-memory replay at the final epoch —
	// anchoring the replay as ground truth for every crashed run.
	replays := sweepReplay()
	ctrlDir := t.TempDir()
	if err := runSweepWorkload(faultfs.OS, filepath.Join(ctrlDir, "state"), filepath.Join(ctrlDir, "acked")); err != nil {
		t.Fatalf("control workload: %v", err)
	}
	ctrlRec := sweepRecover(t, filepath.Join(ctrlDir, "state"))
	if ctrlRec == nil || ctrlRec.Epoch() != sweepFinalEpoch {
		t.Fatalf("control recovery: %+v", ctrlRec)
	}
	ctrlSnap, _ := ctrlRec.Dyn.Snapshot()
	assertSameGraph(t, replays[sweepFinalEpoch], ctrlSnap)
	ctrlSolves := make(map[uint64]core.Result, sweepFinalEpoch+1)

	// Enumerate the workload's operation sequence with a tracing injector.
	enumDir := t.TempDir()
	enum := faultfs.NewInjector(nil)
	enum.SetTracing(true)
	if err := runSweepWorkload(enum, filepath.Join(enumDir, "state"), filepath.Join(enumDir, "acked")); err != nil {
		t.Fatalf("enumeration workload: %v", err)
	}
	trace := enum.Trace()
	if len(trace) == 0 {
		t.Fatal("empty trace: the injector saw no filesystem operations")
	}

	// Build the site list: a crash-before run per state-changing op, plus a
	// torn-write run per WAL write.
	var sites []sweepSite
	kindCount := map[faultfs.Op]int64{}
	var walWrites int64
	for _, info := range trace {
		kindCount[info.Op]++
		if !sweepMutatingOps[info.Op] {
			continue
		}
		sites = append(sites, sweepSite{info: info, mode: faultfs.ModeCrashBefore, op: info.Op, nth: kindCount[info.Op]})
		if info.Op == faultfs.OpWrite && strings.Contains(filepath.Base(info.Path), "wal-") {
			walWrites++
			sites = append(sites, sweepSite{info: info, mode: faultfs.ModeTornWrite, op: faultfs.OpWrite, pathSub: "wal-", nth: walWrites})
		}
	}
	if len(sites) < 20 {
		t.Fatalf("only %d sweep sites — the workload no longer exercises the store", len(sites))
	}

	var table []string
	for _, site := range sites {
		modeName := "crash"
		if site.mode == faultfs.ModeTornWrite {
			modeName = "torn"
		}
		label := fmt.Sprintf("%s@%s", modeName, site.info)
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashPointSweepChild$", "-test.v")
		cmd.Env = append(os.Environ(),
			"IMIN_SWEEP_CHILD=1",
			"IMIN_SWEEP_DIR="+dir,
			"IMIN_SWEEP_OP="+string(site.op),
			"IMIN_SWEEP_PATHSUB="+site.pathSub,
			"IMIN_SWEEP_NTH="+strconv.FormatInt(site.nth, 10),
			"IMIN_SWEEP_MODE="+modeName,
		)
		out, err := cmd.CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != faultfs.CrashExitCode {
			t.Errorf("%s: subprocess exit = %v, want crash code %d\n%s", label, err, faultfs.CrashExitCode, out)
			table = append(table, fmt.Sprintf("FAIL %-50s no crash", label))
			continue
		}

		acked, haveAck := lastAckedEpoch(t, filepath.Join(dir, "acked"))
		rec := sweepRecover(t, filepath.Join(dir, "state"))
		if rec == nil {
			if haveAck {
				t.Errorf("%s: acked up to epoch %d but nothing recovered", label, acked)
				table = append(table, fmt.Sprintf("FAIL %-50s acked=%d recovered nothing", label, acked))
			} else {
				table = append(table, fmt.Sprintf("ok   %-50s crashed before registration", label))
			}
			continue
		}
		e := rec.Epoch()
		ok := true
		if haveAck && e < acked {
			t.Errorf("%s: recovered epoch %d < last acked %d — acknowledged batch lost", label, e, acked)
			ok = false
		}
		if e > sweepFinalEpoch {
			t.Errorf("%s: recovered epoch %d beyond the workload's final %d", label, e, sweepFinalEpoch)
			ok = false
		}
		if ok {
			snap, _ := rec.Dyn.Snapshot()
			assertSameGraph(t, replays[e], snap)
			ctrl, cached := ctrlSolves[e]
			if !cached {
				ctrl = sweepSolve(replays[e])
				ctrlSolves[e] = ctrl
			}
			got := sweepSolve(snap)
			if fmt.Sprint(got.Blockers) != fmt.Sprint(ctrl.Blockers) || got.SampledGraphs != ctrl.SampledGraphs {
				t.Errorf("%s: recovered solve diverged at epoch %d: blockers %v (want %v), samples %d (want %d)",
					label, e, got.Blockers, ctrl.Blockers, got.SampledGraphs, ctrl.SampledGraphs)
				ok = false
			}
		}
		status := "ok  "
		if !ok {
			status = "FAIL"
		}
		table = append(table, fmt.Sprintf("%s %-50s acked=%d recovered=%d", status, label, acked, e))
	}

	report := fmt.Sprintf("crash-point sweep: %d sites\n%s\n", len(sites), strings.Join(table, "\n"))
	if out := os.Getenv("FAULT_MATRIX_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(report), 0o644); err != nil {
			t.Errorf("writing fault matrix to %s: %v", out, err)
		}
	}
	t.Log(report)
}

// sweepRecover opens the crashed directory with the real filesystem and
// recovers it; any error fails the test (recovery must always succeed).
// Returns nil when no graph had been durably registered yet.
func sweepRecover(t *testing.T, dir string) *Recovered {
	t.Helper()
	st, err := Open(dir, Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("reopening crashed store: %v", err)
	}
	defer st.Close()
	recs, err := st.Recover()
	if err != nil {
		t.Fatalf("recovering crashed store: %v", err)
	}
	if len(recs) == 0 {
		return nil
	}
	if len(recs) != 1 || recs[0].Name != "g" {
		t.Fatalf("recovered %d graphs: %+v", len(recs), recs)
	}
	return recs[0]
}

func lastAckedEpoch(t *testing.T, path string) (uint64, bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false
	}
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(strings.TrimSpace(string(data)))
	if len(lines) == 0 {
		return 0, false
	}
	e, err := strconv.ParseUint(lines[len(lines)-1], 10, 64)
	if err != nil {
		t.Fatalf("ack file %q: %v", string(data), err)
	}
	return e, true
}

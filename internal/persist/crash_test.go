package persist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/lake"
	"repro/internal/sketch"
	"repro/internal/table"
)

// The crash matrix: one deterministic schedule of durable mutations and
// snapshots is first run crash-free to count every mutating filesystem
// operation it performs (writes, fsyncs, renames, removes, directory
// syncs), then re-run once per operation with a power failure injected at
// exactly that point — under three writeback models (keep = 0: nothing
// unsynced survives; 0.5: torn tails; 1: everything in flight lands).
// After each crash the directory is power-cycled and reopened, and the
// recovered lake must be byte-identical in discovery behavior to a fresh
// lake.New over the tables of some acknowledged-consistent prefix of the
// schedule:
//
//   - at least every acknowledged mutation survived (the WAL-before-ack
//     durability contract), and
//   - at most the one in-flight mutation beyond them was added (its log
//     record may have reached the disk before the failure).
//
// The recovered sequence number identifies the prefix exactly, so the
// comparison is against one specific expected state, not a disjunction.

// crashStep is one schedule entry: an add batch or a remove batch,
// optionally followed by an explicit snapshot (exercising snapshot
// writing, generation retirement and WAL pruning inside the matrix).
type crashStep struct {
	add    []*table.Table
	remove []string
	snap   bool
}

// crashSchedule builds the fixed pool, initial lake membership and
// mutation steps of the matrix. The step mix is chosen so the write path
// under test covers: plain WAL appends, a snapshot folding a non-empty log
// (retiring nothing), a second snapshot retiring generation 0, re-adding a
// previously removed table, and trailing unfolded records.
func crashSchedule() (pool []*table.Table, initial int, steps []crashStep) {
	rng := rand.New(rand.NewSource(77))
	pool = make([]*table.Table, 8)
	for i := range pool {
		pool[i] = difftest.DiffTable(rng, fmt.Sprintf("c%02d", i))
	}
	steps = []crashStep{
		{add: []*table.Table{pool[3], pool[4]}},
		{remove: []string{pool[1].Name}},
		{add: []*table.Table{pool[5]}, snap: true},
		{remove: []string{pool[3].Name}},
		{add: []*table.Table{pool[6]}, snap: true},
		{add: []*table.Table{pool[1]}},
		{remove: []string{pool[0].Name}},
	}
	return pool, 3, steps
}

// crashStates returns the expected surviving table set after each prefix
// of the schedule: states[k] is the membership once k mutations applied.
func crashStates(pool []*table.Table, initial int, steps []crashStep) [][]*table.Table {
	current := append([]*table.Table(nil), pool[:initial]...)
	states := [][]*table.Table{append([]*table.Table(nil), current...)}
	for _, s := range steps {
		if len(s.add) > 0 {
			current = append(current, s.add...)
		}
		for _, name := range s.remove {
			for i, t := range current {
				if t.Name == name {
					current = append(append([]*table.Table(nil), current[:i]...), current[i+1:]...)
					break
				}
			}
		}
		states = append(states, append([]*table.Table(nil), current...))
	}
	return states
}

// runCrashSchedule drives the schedule against fsys until the first
// failure (the injected crash) or completion. It reports how many
// mutations were acknowledged (-1 when Create itself failed) and how many
// were issued — acknowledged plus the in-flight one the crash interrupted.
func runCrashSchedule(fsys FS, pool []*table.Table, initial int, steps []crashStep, lopts lake.Options) (acked, issued int) {
	l, err := lake.New(pool[:initial], lopts)
	if err != nil {
		panic(err) // in-memory build, no injected faults
	}
	s, err := Create(testDir, l, Options{FS: fsys, SnapshotEvery: -1})
	if err != nil {
		return -1, 0
	}
	for _, step := range steps {
		issued++
		if len(step.add) > 0 {
			err = s.Add(step.add...)
		} else {
			err = s.Remove(step.remove...)
		}
		if err != nil {
			return acked, issued
		}
		acked++
		if step.snap {
			if err := s.Snapshot(); err != nil {
				return acked, issued
			}
		}
	}
	s.Close()
	return acked, issued
}

// TestCrashMatrix is the fault-injection matrix described above, run once
// per sketch engine (MinHash is the only one). Snapshots carry no sketches,
// so every recovery rebuilds the indexes through lake.New under the
// engine's options.
func TestCrashMatrix(t *testing.T) {
	for _, eng := range []sketch.Engine{sketch.MinHash} {
		t.Run(string(eng), func(t *testing.T) {
			lopts := lake.Options{Knowledge: difftest.DiffKB()}
			lopts.LSH.Engine = eng
			runCrashMatrix(t, lopts)
		})
	}
}

func runCrashMatrix(t *testing.T, lopts lake.Options) {
	pool, initial, steps := crashSchedule()
	states := crashStates(pool, initial, steps)
	queries := []*table.Table{pool[0], pool[4], pool[7]}

	// Golden run: no crash; counts the mutating filesystem operations.
	golden := NewMemFS()
	if acked, _ := runCrashSchedule(golden, pool, initial, steps, lopts); acked != len(steps) {
		t.Fatalf("golden run acknowledged %d/%d mutations", acked, len(steps))
	}
	totalOps := golden.Ops()
	if totalOps < 20 {
		t.Fatalf("golden run used only %d mutating ops; schedule too small for a meaningful matrix", totalOps)
	}
	t.Logf("crash matrix: %d crash points x 3 writeback models", totalOps)

	keeps := []float64{0, 0.5, 1}
	stride := 1
	if testing.Short() {
		keeps = []float64{0, 1}
		stride = 3
	}
	for _, keep := range keeps {
		for crashOp := 0; crashOp < totalOps; crashOp += stride {
			ctx := fmt.Sprintf("crash at op %d/%d keep %.1f", crashOp, totalOps, keep)
			fsys := NewMemFS()
			fsys.SetCrash(crashOp, keep)
			acked, issued := runCrashSchedule(fsys, pool, initial, steps, lopts)
			if !fsys.Crashed() {
				t.Fatalf("%s: schedule finished without hitting the crash point", ctx)
			}
			fsys.PowerCycle()
			s, err := Open(testDir, Options{FS: fsys, SnapshotEvery: -1})
			if err != nil {
				// The only legitimate unrecoverable window is a crash before
				// Create finished its initial snapshot + log: nothing was
				// acknowledged yet, so there is nothing to recover.
				if acked >= 0 {
					t.Fatalf("%s: Open failed after %d acknowledged mutations: %v", ctx, acked, err)
				}
				continue
			}
			k := int(s.Status().Seq)
			if k < max(acked, 0) || k > issued {
				t.Fatalf("%s: recovered to %d mutations, want between %d acknowledged and %d issued", ctx, k, acked, issued)
			}
			expectLake(t, ctx, s.Lake(), states[k], lopts, queries)
			// The recovered store must accept further durable mutations: add
			// a probe table, reopen once more, and find it.
			if err := s.Add(pool[7]); err != nil {
				t.Fatalf("%s: post-recovery Add: %v", ctx, err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("%s: post-recovery Close: %v", ctx, err)
			}
			s2, err := Open(testDir, Options{FS: fsys, SnapshotEvery: -1})
			if err != nil {
				t.Fatalf("%s: reopen after recovery: %v", ctx, err)
			}
			if _, ok := s2.Lake().Get(pool[7].Name); !ok {
				t.Fatalf("%s: post-recovery mutation lost on reopen", ctx)
			}
			if got := int(s2.Status().Seq); got != k+1 {
				t.Fatalf("%s: sequence after probe = %d, want %d", ctx, got, k+1)
			}
		}
	}
}

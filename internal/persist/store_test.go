package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/lake"
	"repro/internal/table"
)

const testDir = "lake"

// newStorePool builds a deterministic table pool and the lake options the
// store tests share.
func newStorePool(seed int64, n int) ([]*table.Table, lake.Options) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*table.Table, n)
	for i := range pool {
		pool[i] = difftest.DiffTable(rng, fmt.Sprintf("s%02d", i))
	}
	return pool, lake.Options{Knowledge: difftest.DiffKB()}
}

// mustCreate builds a lake over tables and creates a store for it on fsys.
func mustCreate(t *testing.T, fsys FS, tables []*table.Table, lopts lake.Options, sopts Options) *Store {
	t.Helper()
	l, err := lake.New(tables, lopts)
	if err != nil {
		t.Fatal(err)
	}
	sopts.FS = fsys
	s, err := Create(testDir, l, sopts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return s
}

// expectLake asserts that l answers discovery byte-identically to a fresh
// lake.New over tables.
func expectLake(t *testing.T, ctx string, l *lake.Lake, tables []*table.Table, lopts lake.Options, queries []*table.Table) {
	t.Helper()
	fresh, err := lake.New(tables, lopts)
	if err != nil {
		t.Fatalf("%s: fresh build: %v", ctx, err)
	}
	if got, want := difftest.LakeSig(l, queries), difftest.LakeSig(fresh, queries); got != want {
		t.Fatalf("%s: recovered lake diverged from fresh build\n got:\n%s\nwant:\n%s", ctx, got, want)
	}
}

// TestStoreChurnReopenEquivalence drives 200 randomized schedules of
// durable Add/Remove/Snapshot against a MemFS-backed store, closing and
// reopening the directory mid-schedule and at the end; every reopened lake
// must answer discovery byte-identically to a fresh lake.New over the
// surviving tables. This is the persistence counterpart of the lake's
// differential rebuild-equivalence harness.
func TestStoreChurnReopenEquivalence(t *testing.T) {
	schedules := 200
	if testing.Short() {
		schedules = 25
	}
	for seed := 0; seed < schedules; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("schedule%03d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + seed)))
			pool, lopts := newStorePool(int64(seed), 10)
			fsys := NewMemFS()
			inLake := make([]bool, len(pool))
			var initial []*table.Table
			for i := 0; i < 2+rng.Intn(4); i++ {
				initial = append(initial, pool[i])
				inLake[i] = true
			}
			// A small SnapshotEvery so schedules cross the automatic snapshot
			// trigger (and its generation retirement + WAL pruning) often.
			s := mustCreate(t, fsys, initial, lopts, Options{SnapshotEvery: 3})
			survivors := func() []*table.Table {
				var out []*table.Table
				for i, ok := range inLake {
					if ok {
						out = append(out, pool[i])
					}
				}
				return out
			}
			reopen := func(ctx string) {
				t.Helper()
				if err := s.Close(); err != nil {
					t.Fatalf("%s: Close: %v", ctx, err)
				}
				var err error
				s, err = Open(testDir, Options{FS: fsys, SnapshotEvery: 3})
				if err != nil {
					t.Fatalf("%s: Open: %v", ctx, err)
				}
				queries := []*table.Table{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
				expectLake(t, ctx, s.Lake(), survivors(), lopts, queries)
			}
			ops := 8
			for op := 0; op < ops; op++ {
				var in, out []int
				for i, ok := range inLake {
					if ok {
						in = append(in, i)
					} else {
						out = append(out, i)
					}
				}
				switch c := rng.Intn(8); {
				case c <= 2 && len(out) > 0: // durable add of 1-2 tables
					n := 1 + rng.Intn(2)
					var batch []*table.Table
					for _, i := range out[:min(n, len(out))] {
						batch = append(batch, pool[i])
						inLake[i] = true
					}
					if err := s.Add(batch...); err != nil {
						t.Fatalf("op %d: Add: %v", op, err)
					}
				case c <= 5 && len(in) > 0: // durable remove
					i := in[rng.Intn(len(in))]
					if err := s.Remove(pool[i].Name); err != nil {
						t.Fatalf("op %d: Remove: %v", op, err)
					}
					inLake[i] = false
				case c == 6:
					if err := s.Snapshot(); err != nil {
						t.Fatalf("op %d: Snapshot: %v", op, err)
					}
				default:
					reopen(fmt.Sprintf("seed %d op %d", seed, op))
				}
			}
			reopen(fmt.Sprintf("seed %d final", seed))
		})
	}
}

// TestStoreStatusAndRetention pins the snapshot lifecycle: the automatic
// trigger fires at SnapshotEvery records past the newest snapshot, exactly
// two generations are retained, and the WAL is pruned only to the records
// the previous generation no longer needs.
func TestStoreStatusAndRetention(t *testing.T) {
	pool, lopts := newStorePool(7, 10)
	fsys := NewMemFS()
	s := mustCreate(t, fsys, pool[:2], lopts, Options{SnapshotEvery: 2})
	st := s.Status()
	if st.Seq != 0 || st.SnapshotSeq != 0 || st.Snapshots != 1 || st.WALRecords != 0 {
		t.Fatalf("fresh status = %+v", st)
	}
	if st.FormatMajor != FormatMajor || st.FormatMinor != FormatMinor {
		t.Fatalf("status version = %d.%d", st.FormatMajor, st.FormatMinor)
	}
	if st.LastSync.IsZero() {
		t.Fatal("fresh status has zero LastSync")
	}
	if err := s.Add(pool[2]); err != nil {
		t.Fatal(err)
	}
	if st = s.Status(); st.Seq != 1 || st.SnapshotSeq != 0 || st.WALRecords != 1 || st.WALBytes <= walHeaderLen {
		t.Fatalf("after 1 add: %+v", st)
	}
	// Second mutation crosses SnapshotEvery=2: snapshot at seq 2, retention
	// keeps generations {0, 2}, WAL pruned to records past generation 0 —
	// i.e. both records stay, so a damaged snap-2 still recovers.
	if err := s.Add(pool[3]); err != nil {
		t.Fatal(err)
	}
	if st = s.Status(); st.Seq != 2 || st.SnapshotSeq != 2 || st.Snapshots != 2 || st.WALRecords != 2 {
		t.Fatalf("after auto snapshot: %+v", st)
	}
	// Two more mutations: snapshot at seq 4, generation 0 retired, WAL
	// pruned to records past generation 2 (records 3 and 4).
	if err := s.Remove(pool[2].Name); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(pool[4]); err != nil {
		t.Fatal(err)
	}
	if st = s.Status(); st.Seq != 4 || st.SnapshotSeq != 4 || st.Snapshots != 2 || st.WALRecords != 2 {
		t.Fatalf("after second auto snapshot: %+v", st)
	}
	names, err := fsys.ReadDir(testDir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, n := range names {
		if _, ok := snapSeq(n); ok {
			snaps = append(snaps, n)
		}
	}
	if want := []string{snapName(2), snapName(4)}; fmt.Sprint(snaps) != fmt.Sprint(want) {
		t.Fatalf("snapshots on disk = %v, want %v", snaps, want)
	}
	// An explicit Snapshot with nothing new is a no-op.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := s.Status(); got.SnapshotSeq != 4 || got.Snapshots != 2 {
		t.Fatalf("no-op snapshot changed state: %+v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreValidation pins the mutation pre-checks: invalid batches are
// rejected before anything reaches the log, so the WAL only ever holds
// cleanly replayable records.
func TestStoreValidation(t *testing.T) {
	pool, lopts := newStorePool(9, 6)
	fsys := NewMemFS()
	s := mustCreate(t, fsys, pool[:2], lopts, Options{SnapshotEvery: -1})
	before := s.Status()
	for name, err := range map[string]error{
		"nil table":        s.Add(nil),
		"empty name":       s.Add(table.New("", "c")),
		"duplicate":        s.Add(pool[0]),
		"dup in batch":     s.Add(pool[3], pool[3]),
		"remove missing":   s.Remove("nope"),
		"remove not added": s.Remove(pool[4].Name),
	} {
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if after := s.Status(); after.Seq != before.Seq || after.WALRecords != before.WALRecords {
		t.Fatalf("rejected mutations reached the log: %+v -> %+v", before, after)
	}
	if err := s.Add(); err != nil { // empty batch is a no-op, not an error
		t.Fatal(err)
	}
	if err := s.Remove(); err != nil {
		t.Fatal(err)
	}
}

// TestRowsWithoutColumnsNeverLogged: the table codec spends no bytes on an
// empty row, so a logged table with rows but no columns would fail to
// decode, and recovery would drop its record and every later one as a torn
// tail. The store refuses such a table before logging it, so every
// acknowledged mutation survives a reopen.
func TestRowsWithoutColumnsNeverLogged(t *testing.T) {
	pool, lopts := newStorePool(10, 2)
	fsys := NewMemFS()
	s := mustCreate(t, fsys, pool[:1], lopts, Options{SnapshotEvery: -1})
	bare := table.New("bare")
	bare.MustAddRow()
	bare.MustAddRow()
	if err := s.Add(bare); err == nil {
		t.Error("table with rows but no columns admitted")
	}
	if err := s.Add(pool[1]); err != nil {
		t.Fatal(err)
	}
	seq := s.Status().Seq
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(testDir, Options{FS: fsys, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Status().Seq; got != seq {
		t.Fatalf("reopened at seq %d, but seq %d was acknowledged", got, seq)
	}
}

// TestCreateRefusesExistingDirectory pins that Create never clobbers a
// directory that already holds snapshots.
func TestCreateRefusesExistingDirectory(t *testing.T) {
	pool, lopts := newStorePool(3, 4)
	fsys := NewMemFS()
	s := mustCreate(t, fsys, pool[:2], lopts, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := lake.New(pool[2:], lopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create(testDir, l, Options{FS: fsys}); err == nil || !strings.Contains(err.Error(), "open it instead") {
		t.Fatalf("Create over existing directory: %v", err)
	}
}

// unreadableFS wraps an FS and fails ReadFile of one file and ReadDir of
// one directory with errUnreadable: an I/O error, not a missing entry.
type unreadableFS struct {
	FS
	file, dir string
}

var errUnreadable = errors.New("injected: input/output error")

func (u unreadableFS) ReadFile(name string) ([]byte, error) {
	if name == u.file {
		return nil, errUnreadable
	}
	return u.FS.ReadFile(name)
}

func (u unreadableFS) ReadDir(dir string) ([]string, error) {
	if dir == u.dir {
		return nil, errUnreadable
	}
	return u.FS.ReadDir(dir)
}

// TestOpenRefusesUnreadableWAL pins that only a missing WAL means nothing
// was logged: a WAL that exists but cannot be read refuses Open before
// anything is written, so its acknowledged records survive for a later
// Open that can read them.
func TestOpenRefusesUnreadableWAL(t *testing.T) {
	pool, lopts := newStorePool(23, 4)
	fsys := NewMemFS()
	s := mustCreate(t, fsys, pool[:1], lopts, Options{SnapshotEvery: -1})
	if err := s.Add(pool[1], pool[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(testDir, walFile)
	before, err := fsys.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testDir, Options{FS: unreadableFS{FS: fsys, file: walPath}}); !errors.Is(err, errUnreadable) {
		t.Fatalf("Open over an unreadable WAL = %v, want the read error", err)
	}
	if after, err := fsys.ReadFile(walPath); err != nil || string(after) != string(before) {
		t.Fatalf("WAL changed by the refused Open: %d -> %d bytes (%v)", len(before), len(after), err)
	}
	s, err = Open(testDir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	expectLake(t, "after refusal", s.Lake(), pool[:3], lopts, []*table.Table{pool[1], pool[3]})
}

// TestOpenWithoutWAL pins the other side of that rule: a missing WAL (a
// crash inside Create between the snapshot and the log) means nothing was
// logged, so Open recovers the snapshot and starts a fresh log.
func TestOpenWithoutWAL(t *testing.T) {
	pool, lopts := newStorePool(37, 3)
	fsys := NewMemFS()
	s := mustCreate(t, fsys, pool[:2], lopts, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(filepath.Join(testDir, walFile)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(testDir, Options{FS: fsys})
	if err != nil {
		t.Fatalf("Open without a WAL: %v", err)
	}
	if err := s.Add(pool[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(testDir, Options{FS: fsys}); err != nil {
		t.Fatal(err)
	}
	expectLake(t, "fresh log", s.Lake(), pool, lopts, []*table.Table{pool[0], pool[2]})
}

// TestCreateRefusesUnlistableDir pins that Create writes nothing over a
// directory it cannot list: it cannot tell whether a store lives there.
func TestCreateRefusesUnlistableDir(t *testing.T) {
	pool, lopts := newStorePool(29, 4)
	fsys := NewMemFS()
	s := mustCreate(t, fsys, pool[:2], lopts, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := lake.New(pool[2:3], lopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create(testDir, l, Options{FS: unreadableFS{FS: fsys, dir: testDir}}); !errors.Is(err, errUnreadable) {
		t.Fatalf("Create over an unlistable directory = %v, want the listing error", err)
	}
	s, err = Open(testDir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	expectLake(t, "after refusal", s.Lake(), pool[:2], lopts, []*table.Table{pool[0], pool[3]})
}

// corruptScenario builds a two-generation store directory: snap-0 from
// Create, two logged adds folded into snap-2, then one more logged remove —
// so recovery from the newest snapshot replays record 3, and fallback to
// generation 0 replays records 1..3.
func corruptScenario(t *testing.T) (*MemFS, []*table.Table, lake.Options, []*table.Table) {
	t.Helper()
	pool, lopts := newStorePool(31, 8)
	fsys := NewMemFS()
	s := mustCreate(t, fsys, pool[:4], lopts, Options{SnapshotEvery: -1})
	if err := s.Add(pool[4]); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(pool[5]); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(pool[0].Name); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	survivors := []*table.Table{pool[1], pool[2], pool[3], pool[4], pool[5]}
	return fsys, pool, lopts, survivors
}

// TestSnapshotCorruptionFallsBack damages the newest snapshot generation at
// several offsets (header, section payloads, final checksum byte); Open
// must detect each via checksums, fall back to the previous generation,
// replay the full WAL, remove the damaged file, and answer identically to
// a fresh build.
func TestSnapshotCorruptionFallsBack(t *testing.T) {
	probe, _, _, _ := corruptScenario(t)
	newest := filepath.Join(testDir, snapName(2))
	size := probe.Len(newest)
	if size == 0 {
		t.Fatalf("scenario did not produce %s", newest)
	}
	for _, off := range []int{0, 9, snapHeaderLen, snapHeaderLen + 13, size / 2, size - 1} {
		off := off
		t.Run(fmt.Sprintf("offset%d", off), func(t *testing.T) {
			fsys, pool, lopts, survivors := corruptScenario(t)
			if !fsys.Corrupt(newest, off, 0xff) {
				t.Fatalf("offset %d out of range", off)
			}
			s, err := Open(testDir, Options{FS: fsys, SnapshotEvery: -1})
			if err != nil {
				t.Fatalf("Open after corrupting offset %d: %v", off, err)
			}
			if st := s.Status(); st.Seq != 3 || st.SnapshotSeq != 0 || st.Snapshots != 1 {
				t.Fatalf("recovered status = %+v", st)
			}
			expectLake(t, "fallback", s.Lake(), survivors, lopts, []*table.Table{pool[1], pool[5], pool[7]})
			if fsys.Len(newest) != 0 {
				t.Fatalf("damaged snapshot %s still on disk", newest)
			}
			// The recovered store must stay writable and durable.
			if err := s.Add(pool[6]); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(testDir, Options{FS: fsys, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			expectLake(t, "post-fallback reopen", s2.Lake(), append(survivors, pool[6]), lopts, []*table.Table{pool[6], pool[0]})
		})
	}
}

// TestAllGenerationsCorruptRefuses damages every snapshot generation; Open
// must refuse with a corruption error naming the directory rather than
// serve a guessed state.
func TestAllGenerationsCorruptRefuses(t *testing.T) {
	fsys, _, _, _ := corruptScenario(t)
	for _, name := range []string{snapName(0), snapName(2)} {
		if !fsys.Corrupt(filepath.Join(testDir, name), snapHeaderLen+5, 0xff) {
			t.Fatalf("could not corrupt %s", name)
		}
	}
	_, err := Open(testDir, Options{FS: fsys})
	if err == nil {
		t.Fatal("Open succeeded with every generation corrupt")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error not tagged ErrCorrupt: %v", err)
	}
	if !strings.Contains(err.Error(), "every snapshot generation") {
		t.Fatalf("unexpected refusal message: %v", err)
	}
}

// TestWALTailCorruption flips a byte in the last WAL record; recovery must
// truncate at the damaged record, keep every record before it, and append
// cleanly afterwards.
func TestWALTailCorruption(t *testing.T) {
	pool, lopts := newStorePool(17, 8)
	fsys := NewMemFS()
	s := mustCreate(t, fsys, pool[:3], lopts, Options{SnapshotEvery: -1})
	if err := s.Add(pool[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(pool[4]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(testDir, walFile)
	if !fsys.Corrupt(walPath, fsys.Len(walPath)-1, 0x55) {
		t.Fatal("could not corrupt WAL tail")
	}
	s, err := Open(testDir, Options{FS: fsys, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Record 2 is gone (never acknowledged durable by this history — the
	// corruption models a torn tail), record 1 survives.
	if st := s.Status(); st.Seq != 1 || st.WALRecords != 1 {
		t.Fatalf("recovered status = %+v", st)
	}
	expectLake(t, "truncated", s.Lake(), pool[:4], lopts, []*table.Table{pool[0], pool[4]})
	// New appends land after the rewritten valid prefix, not after garbage.
	if err := s.Add(pool[5]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(testDir, Options{FS: fsys, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Seq != 2 || st.WALRecords != 2 {
		t.Fatalf("status after reopen = %+v", st)
	}
	expectLake(t, "after repair", s.Lake(), append(append([]*table.Table(nil), pool[:4]...), pool[5]), lopts, []*table.Table{pool[5], pool[1]})
}

// TestWALHeaderCorruption damages the WAL header itself: the whole log is
// discarded (nothing past a broken header was ever acknowledged against a
// valid one) and the lake recovers to the snapshot state.
func TestWALHeaderCorruption(t *testing.T) {
	pool, lopts := newStorePool(19, 6)
	fsys := NewMemFS()
	s := mustCreate(t, fsys, pool[:3], lopts, Options{SnapshotEvery: -1})
	if err := s.Add(pool[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !fsys.Corrupt(filepath.Join(testDir, walFile), 3, 0xff) {
		t.Fatal("could not corrupt WAL header")
	}
	s, err := Open(testDir, Options{FS: fsys, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st := s.Status(); st.Seq != 0 || st.WALRecords != 0 {
		t.Fatalf("recovered status = %+v", st)
	}
	expectLake(t, "header loss", s.Lake(), pool[:3], lopts, []*table.Table{pool[0], pool[3]})
}

// rewriteFile replaces a MemFS file's content in full (no crash scheduled,
// so the writes cannot fail).
func rewriteFile(t *testing.T, fsys *MemFS, name string, b []byte) {
	t.Helper()
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestVersionRefusal pins the compatibility policy: snapshots and logs
// stamped with an unknown format major version are refused with a typed
// VersionError — intact checksums make them distinguishable from
// corruption, and refusing beats guessing at an undecodable layout.
func TestVersionRefusal(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		fsys, _, _, _ := corruptScenario(t)
		walPath := filepath.Join(testDir, walFile)
		img, err := fsys.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		// Stamp major version 99 and re-seal the header checksum, so the
		// file reads as intact bytes from a future format.
		img[8], img[9] = 99, 0
		crc := crc32.Checksum(img[:12], castagnoli)
		for i := 0; i < 4; i++ {
			img[12+i] = byte(crc >> (8 * i))
		}
		rewriteFile(t, fsys, walPath, img)
		_, err = Open(testDir, Options{FS: fsys})
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("Open = %v, want VersionError", err)
		}
		if ve.Major != 99 || ve.File != walFile {
			t.Fatalf("VersionError = %+v", ve)
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		fsys, _, _, _ := corruptScenario(t)
		name := filepath.Join(testDir, snapName(2))
		img, err := fsys.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		img[8], img[9] = 99, 0
		crc := crc32.Checksum(img[:snapHeaderLen-4], castagnoli)
		for i := 0; i < 4; i++ {
			img[snapHeaderLen-4+i] = byte(crc >> (8 * i))
		}
		rewriteFile(t, fsys, name, img)
		// A version refusal is not corruption: Open must refuse outright,
		// not silently fall back to the older generation.
		_, err = Open(testDir, Options{FS: fsys})
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("Open = %v, want VersionError", err)
		}
		if ve.Major != 99 {
			t.Fatalf("VersionError = %+v", ve)
		}
	})
}

// stallSyncFS wraps an FS so that, once armed, the next File.Sync blocks
// until release is closed, after signalling entered: a disk whose fsync
// hangs.
type stallSyncFS struct {
	FS
	armed    atomic.Bool
	entered  chan struct{}
	release  chan struct{}
	released sync.Once
}

func (s *stallSyncFS) Create(name string) (File, error) { return s.wrap(s.FS.Create(name)) }
func (s *stallSyncFS) Append(name string) (File, error) { return s.wrap(s.FS.Append(name)) }

func (s *stallSyncFS) wrap(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &stallSyncFile{File: f, fs: s}, nil
}

func (s *stallSyncFS) unblock() { s.released.Do(func() { close(s.release) }) }

type stallSyncFile struct {
	File
	fs *stallSyncFS
}

func (f *stallSyncFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestStatusAnswersDuringSync: Status — what /healthz reports — answers
// while a mutation sits in its WAL fsync and while a snapshot sits in its
// file sync, with the state acknowledged before it; after the write it
// reports the write.
func TestStatusAnswersDuringSync(t *testing.T) {
	for _, op := range []string{"add", "snapshot"} {
		t.Run(op, func(t *testing.T) {
			pool, lopts := newStorePool(79, 5)
			fsys := &stallSyncFS{FS: NewMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
			st := mustCreate(t, fsys, pool[:4], lopts, Options{SnapshotEvery: -1})
			defer st.Close()
			defer fsys.unblock() // before Close, which waits on the stalled write
			write := func() error { return st.Add(pool[4]) }
			if op == "snapshot" {
				if err := st.Add(pool[4]); err != nil {
					t.Fatal(err)
				}
				write = st.Snapshot
			}
			before := st.Status()
			fsys.armed.Store(true)
			wrote := make(chan error, 1)
			go func() { wrote <- write() }()
			<-fsys.entered
			answered := make(chan Status, 1)
			go func() { answered <- st.Status() }()
			select {
			case got := <-answered:
				if got != before {
					t.Fatalf("Status during the %s's sync = %+v, want the state before it %+v", op, got, before)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("Status did not answer while the %s sat in a sync", op)
			}
			fsys.unblock()
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			after := st.Status()
			switch {
			case op == "add" && (after.Seq != before.Seq+1 || after.WALRecords != before.WALRecords+1):
				t.Fatalf("Status after the add = %+v, before %+v", after, before)
			case op == "snapshot" && (after.SnapshotSeq != before.Seq || after.Snapshots != 2):
				t.Fatalf("Status after the snapshot = %+v, before %+v", after, before)
			}
		})
	}
}

package persist

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/difftest"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/table"
)

// These tests pin the snapshot format's evolution: writers emit exactly the
// four sections a lake is built from, minors newer than this build are
// refused, and data directories written by 1.0 and 1.1 builds keep opening.
//
// The stores under testdata/ were written by the last 1.1 build: a lake of
// difftest.DiffTable(rand.New(rand.NewSource(41)), "fx00".."fx05") with
// difftest.DiffKB(), snapshotted by Create, then a WAL of Add fx06,
// Add fx07+fx08, Remove fx01, Add fx09. v1.1 is that directory as written;
// v1.0 has the same snapshot with the 1.1 sketch-engine record stripped and
// the minor stamped 0; v1.1-kmv has the record naming "kmv", the engine
// earlier builds offered beside MinHash. v1.2 follows the same recipe under
// the last build that wrote the lake's value dictionary into section 3, so
// its catalog cells are references into that dictionary.

// legacySurvivors are the tables every testdata store recovers to.
var legacySurvivors = []string{"fx00", "fx02", "fx03", "fx04", "fx05", "fx06", "fx07", "fx08", "fx09"}

// testImage encodes a snapshot of a small difftest lake.
func testImage(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	pool := make([]*table.Table, 6)
	for i := range pool {
		pool[i] = difftest.DiffTable(rng, fmt.Sprintf("e%02d", i))
	}
	l, err := lake.New(pool, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	return encodeSnapshot(stateOf(l), 3)
}

// patchHeader mutates the snapshot header in place (first 28 bytes) and
// re-seals its checksum.
func patchHeader(img []byte, mutate func(h []byte)) {
	mutate(img[:snapHeaderLen-4])
	crc := crc32.Checksum(img[:snapHeaderLen-4], castagnoli)
	for i := 0; i < 4; i++ {
		img[snapHeaderLen-4+i] = byte(crc >> (8 * i))
	}
}

// sectionFrame locates one section of a snapshot image: the frame starts at
// off, and its payload at off+12.
type sectionFrame struct {
	id  uint32
	off int
}

func snapshotFrames(img []byte) []sectionFrame {
	var out []sectionFrame
	for off := snapHeaderLen; off < len(img); {
		d := &dec{b: img[off:]}
		id, plen := d.u32(), d.u64()
		out = append(out, sectionFrame{id, off})
		off += 12 + int(plen) + 4
	}
	return out
}

// TestSnapshotWritesFourSections: a snapshot holds what the lake is — meta,
// KB, value dictionary, catalog — and nothing derived from it.
func TestSnapshotWritesFourSections(t *testing.T) {
	img := testImage(t)
	var ids []uint32
	for _, f := range snapshotFrames(img) {
		ids = append(ids, f.id)
	}
	if got := fmt.Sprint(ids); got != "[1 2 3 5]" {
		t.Fatalf("section IDs = %s, want [1 2 3 5]", got)
	}
	if minor := uint16(img[10]) | uint16(img[11])<<8; minor != FormatMinor || FormatMinor != 2 {
		t.Fatalf("written minor = %d, FormatMinor = %d; want 2", minor, FormatMinor)
	}
}

// sectionPayload returns the payload of the section with the given ID.
func sectionPayload(t *testing.T, img []byte, id uint32) []byte {
	t.Helper()
	for _, f := range snapshotFrames(img) {
		if f.id == id {
			d := &dec{b: img[f.off+4:]}
			return img[f.off+12 : f.off+12+int(d.u64())]
		}
	}
	t.Fatalf("no section %d", id)
	return nil
}

// TestSnapshotIndependentOfHistory: a snapshot is a function of the
// catalog and its KB alone. A store churned through adds and removes of
// tables with fresh cells writes, at the same seq, the same bytes as a
// lake built fresh over its surviving tables — the values of removed
// tables leave no trace — and its value-dictionary section is empty.
func TestSnapshotIndependentOfHistory(t *testing.T) {
	pool, lopts := newStorePool(7, 4)
	s := mustCreate(t, NewMemFS(), pool, lopts, Options{SnapshotEvery: -1})
	defer s.Close()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("churn%02d", i)
		if err := s.Add(difftest.DiffTable(rng, name)); err != nil {
			t.Fatal(err)
		}
		// Every fifth churn table survives, so added tables are part of
		// the compared catalog too.
		if i%5 != 0 {
			if err := s.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	seq := s.Status().Seq
	st := stateOf(s.Lake())
	fresh, err := lake.New(st.Tables, lake.Options{Knowledge: kb.FromDump(st.KB), LSH: st.LSH})
	if err != nil {
		t.Fatal(err)
	}
	got, want := encodeSnapshot(st, seq), encodeSnapshot(stateOf(fresh), seq)
	if !bytes.Equal(got, want) {
		t.Fatalf("churned store's snapshot is %d bytes, a fresh lake's %d", len(got), len(want))
	}
	if p := sectionPayload(t, got, secDict); !bytes.Equal(p, []byte{0}) {
		t.Fatalf("value-dictionary section payload = %d bytes, want the single byte 0", len(p))
	}
}

// TestDictionaryReferencesStillOpen: a data directory whose snapshot
// carries the value dictionary, with catalog cells referencing it, opens
// and upgrades like the older fixtures.
func TestDictionaryReferencesStillOpen(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "v1.2", snapName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if p := sectionPayload(t, img, secDict); len(p) < 2 {
		t.Fatalf("fixture's value-dictionary section is %d bytes; it must carry a dictionary", len(p))
	}
	checkLegacyStore(t, "v1.2")
}

// TestSnapshotNewerMinorRefused: a minor version beyond this build's is a
// VersionError refusal — additive evolution is never guessed at backward.
func TestSnapshotNewerMinorRefused(t *testing.T) {
	img := testImage(t)
	patchHeader(img, func(h []byte) {
		h[10] = FormatMinor + 1
		h[11] = 0
	})
	_, _, err := decodeSnapshot("snap", img)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("decode = %v, want VersionError", err)
	}
	if ve.Major != FormatMajor || ve.Minor != FormatMinor+1 {
		t.Fatalf("VersionError = %+v", ve)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("version refusal must not be tagged ErrCorrupt")
	}
}

// loadFixture copies testdata/<dir> into a MemFS under testDir, so recovery
// may rewrite files without touching the fixture.
func loadFixture(t *testing.T, dir string) *MemFS {
	t.Helper()
	fsys := NewMemFS()
	for _, name := range []string{snapName(0), walFile} {
		b, err := os.ReadFile(filepath.Join("testdata", dir, name))
		if err != nil {
			t.Fatal(err)
		}
		rewriteFile(t, fsys, filepath.Join(testDir, name), b)
	}
	if err := fsys.SyncDir(testDir); err != nil {
		t.Fatal(err)
	}
	return fsys
}

// checkLegacyStore opens a testdata store and requires it to answer
// byte-identically to lake.New over the survivors with the persisted KB —
// both as opened and after its first 1.2 snapshot.
func checkLegacyStore(t *testing.T, dir string) {
	t.Helper()
	fsys := loadFixture(t, dir)
	st, _, err := readSnapshot(fsys, testDir, snapName(0))
	if err != nil {
		t.Fatalf("decode %s: %v", dir, err)
	}
	s, err := Open(testDir, Options{FS: fsys, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Open %s: %v", dir, err)
	}
	if got := s.Status(); got.Seq != 4 || got.SnapshotSeq != 0 || got.WALRecords != 4 {
		t.Fatalf("%s: status %+v, want 4 replayed records over snapshot 0", dir, got)
	}
	tables := s.Lake().Tables()
	var names []string
	for _, tb := range tables {
		names = append(names, tb.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(legacySurvivors) {
		t.Fatalf("%s: recovered tables %v, want %v", dir, names, legacySurvivors)
	}
	fresh, err := lake.New(tables, lake.Options{Knowledge: kb.FromDump(st.KB), LSH: st.LSH})
	if err != nil {
		t.Fatal(err)
	}
	queries := []*table.Table{tables[0], tables[4], tables[8], difftest.DiffTable(rand.New(rand.NewSource(1)), "foreign")}
	want := difftest.LakeSig(fresh, queries)
	if got := difftest.LakeSig(s.Lake(), queries); got != want {
		t.Fatalf("%s: opened lake diverged from fresh build\n got:\n%s\nwant:\n%s", dir, got, want)
	}
	// The next snapshot upgrades the directory to the current format.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if img, err := fsys.ReadFile(filepath.Join(testDir, snapName(4))); err != nil || img[10] != FormatMinor {
		t.Fatalf("%s: upgraded snapshot missing or not at minor %d (err %v)", dir, FormatMinor, err)
	}
	if s, err = Open(testDir, Options{FS: fsys, SnapshotEvery: -1}); err != nil {
		t.Fatalf("reopen %s after upgrade: %v", dir, err)
	}
	defer s.Close()
	if got := difftest.LakeSig(s.Lake(), queries); got != want {
		t.Fatalf("%s: upgraded lake diverged from fresh build\n got:\n%s\nwant:\n%s", dir, got, want)
	}
}

// TestLegacyStoreOpens: a 1.1 data directory opens; its token, domains and
// SANTOS sections are checksummed and skipped, the indexes rebuilt.
func TestLegacyStoreOpens(t *testing.T) {
	checkLegacyStore(t, "v1.1")
}

// TestSnapshotLegacyMinorZero: a 1.0 data directory — no sketch-engine
// record in its domains section — opens like a 1.1 one.
func TestSnapshotLegacyMinorZero(t *testing.T) {
	checkLegacyStore(t, "v1.0")
}

// TestLegacyKMVRecordSkipped: a 1.1 snapshot whose engine record names
// "kmv" opens — the domains section is skipped, so the record is never
// interpreted.
func TestLegacyKMVRecordSkipped(t *testing.T) {
	checkLegacyStore(t, "v1.1-kmv")
}

// TestLegacySkippedSectionsChecksummed: a skipped legacy section is still
// covered by its checksum — a damaged one is corruption (and so triggers
// generation fallback), not silently ignored.
func TestLegacySkippedSectionsChecksummed(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "v1.1", snapName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeSnapshot("snap", img); err != nil {
		t.Fatalf("intact 1.1 image: %v", err)
	}
	checked := 0
	for _, f := range snapshotFrames(img) {
		if f.id != 4 && f.id != 6 && f.id != 7 {
			continue
		}
		checked++
		bad := append([]byte(nil), img...)
		bad[f.off+12] ^= 0xff
		if _, _, err := decodeSnapshot("snap", bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("damaged legacy section %d: err = %v, want ErrCorrupt", f.id, err)
		}
	}
	if checked != 3 {
		t.Fatalf("found %d of the 3 legacy sections in the 1.1 image", checked)
	}
}

package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/lake"
	"repro/internal/sketch"
	"repro/internal/table"
)

// These tests pin the 1.1 sketch-engine evolution of the snapshot format:
// the domains section opens with an (engine, size, seed) record, 1.0 files
// legacy-decode as MinHash, minors newer than this build are refused, and
// engine-record inconsistencies — including any engine but "minhash", the
// only one this build implements — are refusals: intact-checksum errors
// that must NOT be tagged ErrCorrupt, so recovery never "fixes" them by
// falling back to an older snapshot generation.

// engineTestImage builds a small lake and returns its encoded snapshot plus
// the source lake.
func engineTestImage(t *testing.T) ([]byte, *lake.Lake) {
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
	st, err := l.Export()
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	return encodeSnapshot(st, 3), l
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

// rewriteSection rebuilds the image with section id's payload replaced by
// rewrite(old payload), re-framing lengths and checksums.
func rewriteSection(t *testing.T, img []byte, id uint32, rewrite func([]byte) []byte) []byte {
	t.Helper()
	out := append([]byte(nil), img[:snapHeaderLen]...)
	rest := img[snapHeaderLen:]
	found := false
	for len(rest) > 0 {
		sd := &dec{b: rest}
		sid := sd.u32()
		plen := sd.u64()
		payload := rest[12 : 12+plen]
		if sid == id {
			payload = rewrite(append([]byte(nil), payload...))
			found = true
		}
		var e enc
		e.u32(sid)
		e.u64(uint64(len(payload)))
		e.b = append(e.b, payload...)
		e.u32(crc32.Checksum(e.b, castagnoli))
		out = append(out, e.b...)
		rest = rest[12+plen+4:]
	}
	if !found {
		t.Fatalf("section id %d not found in image", id)
	}
	return out
}

// engineRecord splits a 1.1 domains payload into its engine record fields
// and the remainder of the payload.
func engineRecord(t *testing.T, payload []byte) (eng string, size uint64, seed int64, rest []byte) {
	t.Helper()
	d := &dec{b: payload}
	eng = d.str()
	size = d.uvarint()
	seed = d.varint()
	if err := d.err; err != nil {
		t.Fatalf("domains payload prefix: %v", err)
	}
	return eng, size, seed, payload[d.off:]
}

// TestSnapshotNewerMinorRefused: a minor version beyond this build's is a
// VersionError refusal — additive evolution is never guessed at backward.
func TestSnapshotNewerMinorRefused(t *testing.T) {
	img, _ := engineTestImage(t)
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

// TestSnapshotLegacyMinorZero: a 1.0 file — no engine record in the domains
// section — decodes as the MinHash engine and restores normally.
func TestSnapshotLegacyMinorZero(t *testing.T) {
	img, l := engineTestImage(t)
	legacy := rewriteSection(t, img, secDomains, func(payload []byte) []byte {
		_, _, _, rest := engineRecord(t, payload)
		return rest
	})
	patchHeader(legacy, func(h []byte) { h[10], h[11] = 0, 0 })
	st, _, err := decodeSnapshot("snap", legacy)
	if err != nil {
		t.Fatalf("decode 1.0 image: %v", err)
	}
	if st.LSH.Engine != sketch.MinHash {
		t.Fatalf("legacy engine %q, want minhash", st.LSH.Engine)
	}
	r, err := lake.Restore(st)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	queries := l.Tables()[:3]
	if got, want := difftest.LakeSig(r, queries), difftest.LakeSig(l, queries); got != want {
		t.Fatalf("legacy-decoded lake diverged from original\n got:\n%s\nwant:\n%s", got, want)
	}
}

// withEngineRecord re-seals img with the domains section's engine name
// replaced — every checksum stays valid.
func withEngineRecord(t *testing.T, img []byte, eng string) []byte {
	t.Helper()
	return rewriteSection(t, img, secDomains, func(payload []byte) []byte {
		_, size, seed, rest := engineRecord(t, payload)
		var e enc
		e.str(eng)
		e.uvarint(size)
		e.varint(seed)
		return append(e.b, rest...)
	})
}

// assertEngineRefusal checks err is the engine refusal: present, naming the
// engine, and neither a corruption nor a version error.
func assertEngineRefusal(t *testing.T, err error, eng string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("engine %q", eng)) {
		t.Fatalf("engine %q: err = %v, want a refusal naming it", eng, err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("engine %q refusal tagged ErrCorrupt: %v", eng, err)
	}
	var ve *VersionError
	if errors.As(err, &ve) {
		t.Fatalf("engine %q refusal reported as VersionError: %v", eng, err)
	}
}

// TestSnapshotUnknownEngineRefused: an engine name this build does not
// implement is a refusal distinct from corruption — checksums are intact, so
// generation fallback must not engage.
func TestSnapshotUnknownEngineRefused(t *testing.T) {
	img, _ := engineTestImage(t)
	_, _, err := decodeSnapshot("snap", withEngineRecord(t, img, "hll"))
	assertEngineRefusal(t, err, "hll")
}

// TestSnapshotKMVRecordRefused: a snapshot written by a build that still
// offered the KMV engine records "kmv"; this build decodes only "minhash",
// so the file is refused the same way — not as corruption.
func TestSnapshotKMVRecordRefused(t *testing.T) {
	img, _ := engineTestImage(t)
	_, _, err := decodeSnapshot("snap", withEngineRecord(t, img, "kmv"))
	assertEngineRefusal(t, err, "kmv")
}

// TestStoreRefusesKMVSnapshotWithoutFallback: when the newest generation
// records "kmv", Open refuses outright. The older, decodable generation is
// not used and the refused file stays on disk — falling back would silently
// roll acknowledged mutations back.
func TestStoreRefusesKMVSnapshotWithoutFallback(t *testing.T) {
	fsys, _, _, _ := corruptScenario(t)
	newest := filepath.Join(testDir, snapName(2))
	img, err := fsys.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Create(newest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(withEngineRecord(t, img, "kmv")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(testDir, Options{FS: fsys, SnapshotEvery: -1})
	if err == nil {
		defer s.Close()
		t.Fatalf("Open fell back to generation %d past a kmv snapshot", s.Status().SnapshotSeq)
	}
	assertEngineRefusal(t, err, "kmv")
	if fsys.Len(newest) == 0 {
		t.Fatalf("refused snapshot %s was removed", newest)
	}
}

// TestSnapshotEngineParamMismatchRefused: the domains-section size/seed must
// agree with the meta section; disagreement is a refusal, not a corruption.
func TestSnapshotEngineParamMismatchRefused(t *testing.T) {
	img, _ := engineTestImage(t)
	bad := rewriteSection(t, img, secDomains, func(payload []byte) []byte {
		eng, size, seed, rest := engineRecord(t, payload)
		var e enc
		e.str(eng)
		e.uvarint(size + 1)
		e.varint(seed)
		return append(e.b, rest...)
	})
	_, _, err := decodeSnapshot("snap", bad)
	if err == nil {
		t.Fatal("size mismatch between sections must be refused")
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("param-mismatch refusal tagged ErrCorrupt: %v", err)
	}
}

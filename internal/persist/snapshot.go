package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/lshensemble"
	"repro/internal/par"
	"repro/internal/table"
)

// Snapshot file format (all integers little-endian; see PERSISTENCE.md):
//
//	header (32 bytes):
//	  [ 0: 8) magic "DLSNAP\x00\x01"
//	  [ 8:10) format major version
//	  [10:12) format minor version
//	  [12:16) section count
//	  [16:24) sequence number: the last WAL record folded into this state
//	  [24:28) reserved (zero)
//	  [28:32) CRC32C of bytes [0:28)
//	sections, back to back:
//	  [0: 4) section ID
//	  [4:12) payload length
//	  [12: +len) payload
//	  [+len: +len+4) CRC32C of the section ID, length and payload bytes
//
// Every section is independently checksummed so the corruption pass can
// name what it damaged; the header checksum rejects torn or foreign files
// before any section is trusted. Unknown section IDs are skipped (minor
// versions may add sections); a major version bump means the layout is not
// decodable and readSnapshot refuses with a VersionError, as does a minor
// version newer than this build writes — additive evolution is readable
// forward (old files under new builds), never guessed at backward.
//
// Format history:
//
//	1.0  initial durable format: meta, KB, value dictionary, token
//	     dictionary, catalog, domains (token IDs + MinHash signatures),
//	     SANTOS semantic graphs.
//	1.1  the domains section opens with a sketch-engine record
//	     (engine name, sketch size, seed).
//	1.2  only what the lake is: meta, KB, value dictionary, catalog. The
//	     indexes are rebuilt on open (buildLake), so the token, domains
//	     and SANTOS sections of 1.0/1.1 files are checksummed like every
//	     section, then skipped. Later 1.2 writers leave the value
//	     dictionary empty and the catalog carries its own cell pool;
//	     catalog references into a non-empty dictionary still resolve.

const (
	snapMagic = "DLSNAP\x00\x01"
	walMagic  = "DLWAL\x00\x00\x01"

	// FormatMajor changes when the layout becomes incompatible; readers
	// refuse other majors. FormatMinor changes on additive evolution;
	// readers accept older minors and refuse newer ones.
	FormatMajor = 1
	FormatMinor = 2

	snapHeaderLen = 32
)

// Section IDs of the snapshot payload. IDs 4 (tokens), 6 (domains) and 7
// (SANTOS) are retired: 1.0 and 1.1 files carry them, so they are never
// reused.
const (
	secMeta    = 1 // LSH options
	secKB      = 2 // knowledge-base dump
	secDict    = 3 // value dictionary, ID order; written empty
	secCatalog = 5 // tables (exact cells via the batch value pool)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt tags decode failures caused by damaged or truncated bytes.
// Recovery falls back to the previous snapshot generation on it; anything
// else (I/O errors, version refusals) aborts.
var ErrCorrupt = errors.New("corrupt")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("persist: %w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// VersionError reports a snapshot or WAL written by an incompatible format
// version: a different major, or a minor newer than this build writes. It
// is a refusal, not a corruption: the bytes are intact but this build
// cannot (or will not guess how to) interpret them.
type VersionError struct {
	File         string
	Major, Minor uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("persist: %s: format version %d.%d not supported (this build reads %d.0 through %d.%d); upgrade or rebuild the lake directory",
		e.File, e.Major, e.Minor, FormatMajor, FormatMajor, FormatMinor)
}

// snapName formats the snapshot file name for a sequence number. The fixed
// %016x form sorts lexically in seq order, which listSnapshots relies on.
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.dialite", seq) }

// snapSeq parses a snapshot file name; ok is false for other files.
func snapSeq(name string) (uint64, bool) {
	var seq uint64
	var tail string
	if n, err := fmt.Sscanf(name, "snap-%16x%s", &seq, &tail); err != nil || n != 2 || tail != ".dialite" {
		return 0, false
	}
	return seq, true
}

// encodeLake renders the snapshot file image of l's current state, whose
// last folded WAL record is seq. It reads the catalog from one published
// view and the KB, frozen at build, so it takes no lock.
func encodeLake(l *lake.Lake, seq uint64) []byte {
	return encodeImage(l.Tables(), l.Knowledge().Dump, l.Join().Options(), seq)
}

// encodeImage renders a snapshot file image: the catalog of tables, the KB
// that dump flattens, and the LSH geometry. The KB and catalog sections,
// nearly all of an image, are encoded side by side (dump runs inside the
// KB branch); the image is then assembled into one buffer sized from its
// sections.
func encodeImage(tables []*table.Table, dump func() kb.Dump, lsh lshensemble.Options, seq uint64) []byte {
	var meta, know, dict, catalog enc
	meta.uvarint(uint64(lsh.NumHashes))
	meta.uvarint(uint64(lsh.NumPartitions))
	meta.varint(lsh.Seed)
	dict.uvarint(0)
	par.Do(
		func() { know.kbDump(dump()) },
		func() { catalog.tables(tables) },
	)
	sections := [...]struct {
		id   uint32
		body []byte
	}{{secMeta, meta.b}, {secKB, know.b}, {secDict, dict.b}, {secCatalog, catalog.b}}
	size := snapHeaderLen
	for _, s := range sections {
		size += 12 + len(s.body) + 4
	}
	img := enc{b: make([]byte, 0, size)}
	img.b = append(img.b, snapMagic...)
	img.u16(FormatMajor)
	img.u16(FormatMinor)
	img.u32(uint32(len(sections)))
	img.u64(seq)
	img.u32(0) // reserved
	img.u32(crc32.Checksum(img.b, castagnoli))
	for _, s := range sections {
		start := len(img.b)
		img.u32(s.id)
		img.u64(uint64(len(s.body)))
		img.b = append(img.b, s.body...)
		img.u32(crc32.Checksum(img.b[start:], castagnoli))
	}
	return img.b
}

// decodeSnapshot parses a snapshot file image. file is only used in error
// messages.
func decodeSnapshot(file string, b []byte) (lake.State, uint64, error) {
	var st lake.State
	if len(b) < snapHeaderLen {
		return st, 0, corruptf("%s: %d bytes is shorter than the %d-byte header", file, len(b), snapHeaderLen)
	}
	h := &dec{b: b[:snapHeaderLen]}
	if string(h.take(8)) != snapMagic {
		return st, 0, corruptf("%s: bad magic", file)
	}
	major, minor := h.u16(), h.u16()
	nsec := h.u32()
	seq := h.u64()
	h.u32() // reserved
	if crc := h.u32(); h.err == nil && crc != crc32.Checksum(b[:snapHeaderLen-4], castagnoli) {
		return st, 0, corruptf("%s: header checksum mismatch", file)
	}
	if h.err != nil {
		return st, 0, fmt.Errorf("%w (%s)", ErrCorrupt, h.err)
	}
	if major != FormatMajor || minor > FormatMinor {
		return st, 0, &VersionError{File: file, Major: major, Minor: minor}
	}
	// Frame pass: verify every section frame and checksum sequentially (CRC
	// over the whole file is cheap), collecting the payloads. The payload
	// decodes are then independent per section, so they run concurrently —
	// the catalog is several times the size of everything else, and the
	// small sections hide entirely behind it.
	seen := make(map[uint32]bool, nsec)
	bodies := make(map[uint32][]byte, nsec)
	rest := b[snapHeaderLen:]
	for i := uint32(0); i < nsec; i++ {
		if len(rest) < 12 {
			return st, 0, corruptf("%s: truncated at section %d header", file, i)
		}
		sd := &dec{b: rest[:12]}
		id := sd.u32()
		plen := sd.u64()
		if uint64(len(rest)) < 16 || plen > uint64(len(rest))-16 {
			return st, 0, corruptf("%s: section %d (id %d): length %d overruns file", file, i, id, plen)
		}
		body := rest[12 : 12+plen]
		want := uint32(rest[12+plen]) | uint32(rest[12+plen+1])<<8 | uint32(rest[12+plen+2])<<16 | uint32(rest[12+plen+3])<<24
		if got := crc32.Checksum(rest[:12+plen], castagnoli); got != want {
			return st, 0, corruptf("%s: section id %d: checksum mismatch", file, id)
		}
		rest = rest[12+plen+4:]
		if seen[id] {
			return st, 0, corruptf("%s: duplicate section id %d", file, id)
		}
		seen[id] = true
		bodies[id] = body // unknown IDs stay checksummed but undecoded
	}
	if len(rest) != 0 {
		return st, 0, corruptf("%s: %d trailing bytes after %d sections", file, len(rest), nsec)
	}
	type section struct {
		id     uint32
		decode func(d *dec)
	}
	decodeOne := func(s section) error {
		body, ok := bodies[s.id]
		if !ok {
			return nil // reported as a missing section below
		}
		d := &dec{b: body}
		s.decode(d)
		if err := d.done(); err != nil {
			return fmt.Errorf("%w: %s: section id %d: %s", ErrCorrupt, file, s.id, err)
		}
		return nil
	}
	// The dictionary decodes first: an older 1.2 catalog's cells reference
	// it (see the table codec), so it is an input to the remaining sections.
	var dictVals []table.Value
	if err := decodeOne(section{secDict, func(d *dec) {
		n := d.count(1)
		dictVals = make([]table.Value, 0, n)
		for j := 0; j < n && d.err == nil; j++ {
			dictVals = append(dictVals, d.value())
		}
	}}); err != nil {
		return st, 0, err
	}
	sections := []section{
		{secMeta, func(d *dec) {
			st.LSH.NumHashes = int(d.uvarint())
			st.LSH.NumPartitions = int(d.uvarint())
			st.LSH.Seed = d.varint()
		}},
		{secKB, func(d *dec) { st.KB = d.kbDump() }},
		{secCatalog, func(d *dec) { st.Tables = d.tables(dictVals) }},
	}
	secErrs := make([]error, len(sections))
	par.For(len(sections), func(i int) {
		secErrs[i] = decodeOne(sections[i])
	})
	for _, err := range secErrs {
		if err != nil {
			return st, 0, err
		}
	}
	for _, id := range [...]uint32{secMeta, secKB, secDict, secCatalog} {
		if !seen[id] {
			return st, 0, corruptf("%s: missing section id %d", file, id)
		}
	}
	return st, seq, nil
}

// buildLake builds the lake a decoded snapshot describes: lake.New over its
// catalog, annotated with its knowledge base as persisted, under its LSH
// geometry. Every discovery index is rebuilt here — a snapshot carries none.
func buildLake(st lake.State) (*lake.Lake, error) {
	return lake.New(st.Tables, lake.Options{Knowledge: kb.FromDump(st.KB), LSH: st.LSH})
}

// writeSnapshot atomically writes the snapshot of l at seq into dir (see
// replaceFile): a crash leaves either no new snapshot or a complete one —
// never a half-written file under the final name.
func writeSnapshot(fsys FS, dir string, l *lake.Lake, seq uint64) error {
	if _, err := replaceFile(fsys, filepath.Join(dir, snapName(seq)), encodeLake(l, seq)); err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	return nil
}

// readSnapshot loads and decodes one snapshot file.
func readSnapshot(fsys FS, dir, name string) (lake.State, uint64, error) {
	b, err := fsys.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return lake.State{}, 0, fmt.Errorf("persist: snapshot: %w", err)
	}
	return decodeSnapshot(name, b)
}

// listSnapshots returns the snapshot sequence numbers present in dir,
// ascending. Temp files and foreign names are ignored.
func listSnapshots(fsys FS, dir string) ([]uint64, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, n := range names {
		if seq, ok := snapSeq(n); ok {
			seqs = append(seqs, seq)
		}
	}
	return seqs, nil
}

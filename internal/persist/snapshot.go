package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"repro/internal/lake"
	"repro/internal/par"
	"repro/internal/sketch"
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
//	1.0  initial durable format; domains carry MinHash signatures.
//	1.1  the domains section opens with a sketch-engine record
//	     (engine name, sketch size, seed); 1.0 files decode as the
//	     "minhash" engine. "minhash" is the only engine this build
//	     decodes; any other name is refused.

const (
	snapMagic = "DLSNAP\x00\x01"
	walMagic  = "DLWAL\x00\x00\x01"

	// FormatMajor changes when the layout becomes incompatible; readers
	// refuse other majors. FormatMinor changes on additive evolution;
	// readers accept older minors and refuse newer ones.
	FormatMajor = 1
	FormatMinor = 1

	snapHeaderLen = 32
)

// Section IDs of the snapshot payload.
const (
	secMeta    = 1 // LSH options
	secKB      = 2 // knowledge-base dump
	secDict    = 3 // value dictionary, ID order
	secTokens  = 4 // token dictionary, ID order
	secCatalog = 5 // tables (exact cells via the batch value pool)
	secDomains = 6 // sketch-engine record (since 1.1) + domains: token IDs + sketches
	secSantos  = 7 // SANTOS semantic graphs over compiled KB IDs
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

// encodeSnapshot renders a full snapshot file image for a lake state whose
// last folded WAL record is seq.
func encodeSnapshot(st lake.State, seq uint64) []byte {
	sections := make([][]byte, 0, 7)
	section := func(id uint32, fill func(*enc)) {
		var e enc
		e.u32(id)
		e.u64(0) // length, patched below
		fill(&e)
		plen := uint64(len(e.b) - 12)
		for i := 0; i < 8; i++ {
			e.b[4+i] = byte(plen >> (8 * i))
		}
		e.u32(crc32.Checksum(e.b, castagnoli))
		sections = append(sections, e.b)
	}
	section(secMeta, func(e *enc) {
		e.uvarint(uint64(st.LSH.NumHashes))
		e.uvarint(uint64(st.LSH.NumPartitions))
		e.varint(st.LSH.Seed)
	})
	section(secKB, func(e *enc) { e.kbDump(st.KB) })
	section(secDict, func(e *enc) {
		e.uvarint(uint64(len(st.DictVals)))
		for _, v := range st.DictVals {
			e.value(v)
		}
	})
	section(secTokens, func(e *enc) {
		e.uvarint(uint64(len(st.Tokens)))
		for _, t := range st.Tokens {
			e.str(t)
		}
	})
	section(secCatalog, func(e *enc) { e.tables(st.Tables, st.DictVals) })
	section(secDomains, func(e *enc) {
		// Since 1.1 the domains section opens with the sketch-engine record:
		// the engine the persisted sketches were signed under (always
		// MinHash) plus the size and seed they are only meaningful with. Size
		// and seed repeat the meta section on purpose — the decoder
		// cross-checks them, so a snapshot whose sections disagree is refused
		// rather than restored into an index that would silently mis-estimate.
		e.str(string(sketch.MinHash))
		e.uvarint(uint64(st.LSH.NumHashes))
		e.varint(st.LSH.Seed)
		e.domains(st.Domains)
	})
	section(secSantos, func(e *enc) { e.santosStates(st.Santos) })

	var h enc
	h.b = append(h.b, snapMagic...)
	h.u16(FormatMajor)
	h.u16(FormatMinor)
	h.u32(uint32(len(sections)))
	h.u64(seq)
	h.u32(0) // reserved
	h.u32(crc32.Checksum(h.b, castagnoli))
	out := h.b
	for _, s := range sections {
		out = append(out, s...)
	}
	return out
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
	var (
		domEngine sketch.Engine
		domSize   int
		domSeed   int64
	)
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
	// The dictionary decodes first: the catalog's cell pool references it
	// (see the table codec), so it is an input to the remaining sections.
	if err := decodeOne(section{secDict, func(d *dec) {
		n := d.count(1)
		st.DictVals = make([]table.Value, 0, n)
		for j := 0; j < n && d.err == nil; j++ {
			st.DictVals = append(st.DictVals, d.value())
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
		{secTokens, func(d *dec) {
			n := d.count(1)
			st.Tokens = make([]string, 0, n)
			for j := 0; j < n && d.err == nil; j++ {
				st.Tokens = append(st.Tokens, d.str())
			}
		}},
		{secCatalog, func(d *dec) { st.Tables = d.tables(st.DictVals) }},
		{secDomains, func(d *dec) {
			if minor >= 1 {
				domEngine = sketch.Engine(d.str())
				domSize = int(d.uvarint())
				domSeed = d.varint()
			} else {
				// 1.0 files predate the engine record; their sketches are
				// MinHash signatures by definition.
				domEngine = sketch.MinHash
			}
			st.Domains = d.domains()
		}},
		{secSantos, func(d *dec) { st.Santos = d.santosStates() }},
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
	for _, id := range [...]uint32{secMeta, secKB, secDict, secTokens, secCatalog, secDomains, secSantos} {
		if !seen[id] {
			return st, 0, corruptf("%s: missing section id %d", file, id)
		}
	}
	// Sketch-engine refusals, cross-checked after both sections decoded (meta
	// and domains run concurrently above). These are deliberately NOT tagged
	// ErrCorrupt: the bytes are intact and every checksum passed, so falling
	// back to an older snapshot generation would not help — the file is
	// refused, never guessed at.
	if domEngine != sketch.MinHash {
		return st, 0, fmt.Errorf("persist: %s: snapshot sketch engine %q is not implemented by this build; upgrade or rebuild the lake directory", file, domEngine)
	}
	st.LSH.Engine = domEngine
	if minor >= 1 && (domSize != st.LSH.NumHashes || domSeed != st.LSH.Seed) {
		return st, 0, fmt.Errorf("persist: %s: domains section sketch params (size %d, seed %d) disagree with meta section (size %d, seed %d)",
			file, domSize, domSeed, st.LSH.NumHashes, st.LSH.Seed)
	}
	return st, seq, nil
}

// writeSnapshot atomically writes the snapshot for (st, seq) into dir:
// temp file, file sync, rename into place, directory sync. A crash at any
// of those points leaves either no new snapshot or a complete one — never
// a half-written file under the final name.
func writeSnapshot(fsys FS, dir string, st lake.State, seq uint64) error {
	img := encodeSnapshot(st, seq)
	final := filepath.Join(dir, snapName(seq))
	tmp := final + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
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

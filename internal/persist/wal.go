package persist

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/table"
)

// WAL file format (see PERSISTENCE.md):
//
//	header (16 bytes):
//	  [ 0: 8) magic "DLWAL\x00\x00\x01"
//	  [ 8:10) format major version
//	  [10:12) format minor version
//	  [12:16) CRC32C of bytes [0:12)
//	records, back to back:
//	  [0:4) payload length
//	  [4:8) CRC32C of the payload
//	  [8: +len) payload
//	payload:
//	  [0:8) sequence number (monotonic, 1-based; snapshots record the last
//	        sequence folded into them)
//	  [8:9) op: 1 = add tables, 2 = remove tables
//	  [9: ) body: the table batch codec (add) or a name list (remove)
//
// Each record is appended in a single write and fsynced before the
// mutation it describes is applied in memory or acknowledged — so an
// acknowledged mutation is always replayable. A crash can tear at most the
// tail record, which then fails its length or CRC check; recovery keeps
// the valid prefix and discards the tail.

const (
	walFile = "wal.dialite"

	walHeaderLen = 16

	walOpAdd    = 1
	walOpRemove = 2
)

// walRecord is one decoded WAL record, with the raw frame bytes it was
// parsed from (header excluded) so rewrites re-emit records verbatim.
type walRecord struct {
	seq    uint64
	op     byte
	tables []*table.Table // walOpAdd
	names  []string       // walOpRemove
	raw    []byte
}

// walHeader renders the 16-byte WAL file header.
func walHeader() []byte {
	var e enc
	e.b = append(e.b, walMagic...)
	e.u16(FormatMajor)
	e.u16(FormatMinor)
	e.u32(crc32.Checksum(e.b, castagnoli))
	return e.b
}

// frameRecord wraps a record payload in its length+CRC frame.
func frameRecord(payload []byte) []byte {
	var e enc
	e.u32(uint32(len(payload)))
	e.u32(crc32.Checksum(payload, castagnoli))
	e.b = append(e.b, payload...)
	return e.b
}

// encodeAddRecord renders the framed WAL record for an Add batch.
func encodeAddRecord(seq uint64, tables []*table.Table) []byte {
	var e enc
	e.u64(seq)
	e.u8(walOpAdd)
	e.tables(tables)
	return frameRecord(e.b)
}

// encodeRemoveRecord renders the framed WAL record for a Remove batch.
func encodeRemoveRecord(seq uint64, names []string) []byte {
	var e enc
	e.u64(seq)
	e.u8(walOpRemove)
	e.uvarint(uint64(len(names)))
	for _, n := range names {
		e.str(n)
	}
	return frameRecord(e.b)
}

// decodeWALPayload parses one record payload (the bytes inside the frame).
func decodeWALPayload(p []byte) (walRecord, error) {
	d := &dec{b: p}
	r := walRecord{seq: d.u64(), op: d.u8()}
	switch r.op {
	case walOpAdd:
		r.tables = d.tables(nil)
	case walOpRemove:
		n := d.count(1)
		for i := 0; i < n && d.err == nil; i++ {
			r.names = append(r.names, d.str())
		}
	default:
		if d.err == nil {
			d.fail("unknown WAL op %d", r.op)
		}
	}
	if err := d.done(); err != nil {
		return walRecord{}, err
	}
	return r, nil
}

// decodeWAL parses a WAL file image into its valid record prefix.
// validLen is the byte length of that prefix (header included): everything
// past it is a torn or corrupt tail that recovery must discard. The error
// is non-nil only for refusals (an incompatible major version) — torn and
// corrupt tails are an expected crash outcome, reported via validLen, not
// an error.
func decodeWAL(b []byte) (recs []walRecord, validLen int, err error) {
	if ok, err := checkWALHeader(b); !ok {
		return nil, 0, err
	}
	off := walHeaderLen
	for {
		frame, payload, ok := nextFrame(b[off:])
		if !ok {
			return recs, off, nil
		}
		r, derr := decodeWALPayload(payload)
		if derr != nil {
			// The CRC matched but the payload does not parse: treat it like
			// any other corrupt tail and stop here.
			return recs, off, nil
		}
		if len(recs) > 0 && r.seq <= recs[len(recs)-1].seq {
			// Sequence numbers are strictly monotonic within a file; a
			// regression means the tail is stale bytes, not a valid record.
			return recs, off, nil
		}
		r.raw = frame
		recs = append(recs, r)
		off += len(frame)
	}
}

// walFramesPast returns the raw frames of a WAL image's valid prefix whose
// sequence number is past prev, in order, for a prune to keep. It reads
// each frame's length, CRC and leading sequence number and decodes no
// payload. It stops where decodeWAL stops — a missing or damaged header, a
// short, oversized or CRC-failing frame, a sequence that does not rise —
// except at a frame whose CRC matches but whose payload does not parse,
// which it keeps. The store prunes only frames it wrote itself, so it meets
// no such frame; and if one were kept, Open's decodeWAL would stop at it
// as it would have before the prune.
func walFramesPast(b []byte, prev uint64) ([][]byte, error) {
	if ok, err := checkWALHeader(b); !ok {
		return nil, err
	}
	var frames [][]byte
	var last uint64
	for off := walHeaderLen; ; {
		frame, payload, ok := nextFrame(b[off:])
		if !ok {
			return frames, nil
		}
		seq := binary.LittleEndian.Uint64(payload)
		if off > walHeaderLen && seq <= last {
			return frames, nil
		}
		if seq > prev {
			frames = append(frames, frame)
		}
		last = seq
		off += len(frame)
	}
}

// checkWALHeader validates a WAL image's header. ok is false when the
// header is missing, short or damaged, which invalidates the whole file
// (the header is written and synced before any record is acknowledged, so
// no acknowledged mutation can live past it), and err is set when the
// file's major version is not this build's.
func checkWALHeader(b []byte) (ok bool, err error) {
	if len(b) < walHeaderLen {
		return false, nil
	}
	h := &dec{b: b[:walHeaderLen]}
	magicOK := string(h.take(8)) == walMagic
	major, minor := h.u16(), h.u16()
	crcOK := h.u32() == crc32.Checksum(b[:walHeaderLen-4], castagnoli)
	if !magicOK || !crcOK {
		return false, nil
	}
	if major != FormatMajor || minor > FormatMinor {
		return false, &VersionError{File: walFile, Major: major, Minor: minor}
	}
	return true, nil
}

// nextFrame splits the record frame at the front of rest, its length and
// CRC included, from its payload. ok is false unless rest starts with a
// whole frame whose payload holds at least a sequence number and an op
// and matches its CRC.
func nextFrame(rest []byte) (frame, payload []byte, ok bool) {
	if len(rest) < 8 {
		return nil, nil, false
	}
	plen := int(binary.LittleEndian.Uint32(rest))
	if plen < 9 || plen > len(rest)-8 {
		return nil, nil, false
	}
	payload = rest[8 : 8+plen]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
		return nil, nil, false
	}
	return rest[:8+plen], payload, true
}

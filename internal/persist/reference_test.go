package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/synth"
	"repro/internal/table"
)

// The snapshot encoder's reference: the sequential encoder the format was
// first written with, one generic table.ExactKey map looked up twice per
// cell, each section and then the image grown by appending. The encoder in
// snapshot.go and codec.go must write the same bytes — a snapshot image or
// a WAL Add record — for every input.

// stateOf flattens a lake into the State a snapshot decodes to: its
// tables, its knowledge base's Dump and its LSH geometry.
func stateOf(l *lake.Lake) lake.State {
	return lake.State{Tables: l.Tables(), KB: l.Knowledge().Dump(), LSH: l.Join().Options()}
}

// encodeSnapshot renders the snapshot image of a lake state through the
// production encoder.
func encodeSnapshot(st lake.State, seq uint64) []byte {
	return encodeImage(st.Tables, func() kb.Dump { return st.KB }, st.LSH, seq)
}

// refTables is the reference table-batch encoder.
func (e *enc) refTables(ts []*table.Table) {
	var pool []table.Value
	poolIdx := make(map[table.ExactKey]uint64)
	cellAt := func(v table.Value) uint64 {
		i, ok := poolIdx[v.Exact()]
		if !ok {
			i = uint64(len(pool))
			poolIdx[v.Exact()] = i
			pool = append(pool, v)
		}
		return i
	}
	for _, t := range ts {
		for _, row := range t.Rows {
			for _, v := range row {
				cellAt(v)
			}
		}
	}
	e.uvarint(uint64(len(pool)))
	for _, v := range pool {
		e.value(v)
	}
	e.uvarint(uint64(len(ts)))
	for _, t := range ts {
		lenAt := len(e.b)
		e.u64(0)
		e.str(t.Name)
		e.uvarint(uint64(len(t.Columns)))
		for _, c := range t.Columns {
			e.str(c)
		}
		e.uvarint(uint64(len(t.Rows)))
		for _, row := range t.Rows {
			if len(row) != len(t.Columns) {
				panic(fmt.Sprintf("persist: table %q: row width %d != %d columns", t.Name, len(row), len(t.Columns)))
			}
			for _, v := range row {
				e.uvarint(cellAt(v))
			}
		}
		binary.LittleEndian.PutUint64(e.b[lenAt:], uint64(len(e.b)-lenAt-8))
	}
}

// refEncodeSnapshot is the reference snapshot encoder: the sections one
// after another, the KB from the state's dump.
func refEncodeSnapshot(st lake.State, seq uint64) []byte {
	sections := make([][]byte, 0, 4)
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
	section(secDict, func(e *enc) { e.uvarint(0) })
	section(secCatalog, func(e *enc) { e.refTables(st.Tables) })

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

// refEncodeAddRecord is the reference WAL Add record.
func refEncodeAddRecord(seq uint64, tables []*table.Table) []byte {
	var e enc
	e.u64(seq)
	e.u8(walOpAdd)
	e.refTables(tables)
	return frameRecord(e.b)
}

// collisionTable holds cells that share a dictionary ID but not a pool
// entry: Int 82 and Float 82.0, NaN payloads, ±0, both null kinds and the
// bools, in the order intFirst picks, plus strings other tables repeat.
func collisionTable(name string, intFirst bool) *table.Table {
	i82, f82 := table.IntValue(82), table.FloatValue(82)
	if !intFirst {
		i82, f82 = f82, i82
	}
	t := table.New(name, "a", "b", "c")
	t.Rows = [][]table.Value{
		{i82, f82, table.StringValue("82")},
		{table.FloatValue(math.NaN()), table.FloatValue(math.Float64frombits(0xfff8000000000002)), table.FloatValue(math.Copysign(0, -1))},
		{table.FloatValue(0), table.IntValue(0), table.IntValue(math.MinInt64)},
		{table.NullValue(), table.ProducedNull(), table.BoolValue(false)},
		{table.BoolValue(true), table.IntValue(math.MaxInt64), table.StringValue("")},
		{f82, i82, table.StringValue("a")},
	}
	return t
}

// referenceLake builds a lake over a small synthesized lake plus a
// collision table, with a synthesized KB.
func referenceLake(t *testing.T, intFirst bool) *lake.Lake {
	t.Helper()
	sl := synth.GenerateLake(synth.LakeOptions{Families: 4, TablesPerFamily: 3, RowsPerTable: 25, JoinablePerFamily: 1, NoiseTables: 4, Seed: 3})
	tables := append([]*table.Table{collisionTable("collide", intFirst)}, sl.Tables...)
	l, err := lake.New(tables, lake.Options{Knowledge: kb.Demo(), SynthesizeKB: true})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSnapshotMatchesReference: the snapshot a store writes equals the
// reference encoder's byte for byte, with Int 82 seen before Float 82.0
// and after it.
func TestSnapshotMatchesReference(t *testing.T) {
	for _, intFirst := range []bool{true, false} {
		l := referenceLake(t, intFirst)
		want := refEncodeSnapshot(stateOf(l), 9)
		if got := encodeLake(l, 9); !bytes.Equal(got, want) {
			t.Fatalf("intFirst=%t: snapshot is %d bytes, the reference's %d, and they differ", intFirst, len(got), len(want))
		}
		if got := encodeSnapshot(stateOf(l), 9); !bytes.Equal(got, want) {
			t.Fatalf("intFirst=%t: exported-state snapshot differs from the reference", intFirst)
		}
	}
}

// TestAddRecordsMatchReference: every WAL Add record equals the
// reference's — one record per table, a multi-table batch, the collision
// table in both orders beside tables repeating its strings, and an empty
// table — and the batch buffer is grown exactly once, to its final size.
func TestAddRecordsMatchReference(t *testing.T) {
	l := referenceLake(t, true)
	rng := rand.New(rand.NewSource(4))
	batches := [][]*table.Table{
		l.Tables(),
		{collisionTable("i", true), collisionTable("f", false)},
		{collisionTable("f", false), collisionTable("i", true)},
		{table.New("empty", "x"), difftest.DiffTable(rng, "d0"), difftest.DiffTable(rng, "d1")},
	}
	for _, tb := range l.Tables() {
		batches = append(batches, []*table.Table{tb})
	}
	for i, b := range batches {
		if got, want := encodeAddRecord(uint64(i+1), b), refEncodeAddRecord(uint64(i+1), b); !bytes.Equal(got, want) {
			t.Fatalf("batch %d (%d tables): Add record is %d bytes, the reference's %d, and they differ", i, len(b), len(got), len(want))
		}
		var e enc
		e.tables(b)
		if len(e.b) != cap(e.b) {
			t.Fatalf("batch %d: %d bytes encoded into a buffer of %d: the size pass is off", i, len(e.b), cap(e.b))
		}
	}
}

// TestSnapshotFilesPinned pins the snapshot persist.Create writes for the
// benchmark's lake on seeds 1 and 2 to the files the reference encoder
// wrote.
func TestSnapshotFilesPinned(t *testing.T) {
	pins := []struct {
		seed int64
		sum  string
		size int
	}{
		{1, "d187571b7ee9cdebcc5a522dc402cebadb8d1e147ecba917461eeaa7093b65bc", 3539756},
		{2, "e87546af3d7d71f39b6a9b829a310c8be01924d9ed644934c3da12942599e8bf", 3442668},
	}
	for _, pin := range pins {
		sl := synth.GenerateLake(synth.LakeOptions{Families: 60, TablesPerFamily: 6, RowsPerTable: 120, JoinablePerFamily: 2, NoiseTables: 60, Seed: pin.seed})
		p, err := core.New(sl.Tables, core.Config{Knowledge: kb.Demo(), SynthesizeKB: true})
		if err != nil {
			t.Fatal(err)
		}
		img := encodeLake(p.Lake().(*lake.Lake), 0)
		if sum := fmt.Sprintf("%x", sha256.Sum256(img)); sum != pin.sum || len(img) != pin.size {
			t.Fatalf("seed %d: snapshot sha256 %s (%d B), want %s (%d B)", pin.seed, sum, len(img), pin.sum, pin.size)
		}
	}
}

// refFramesPast is the WAL prune's reference selection: decode the whole
// WAL and keep the raw frames of the records past prev.
func refFramesPast(b []byte, prev uint64) ([][]byte, error) {
	recs, _, err := decodeWAL(b)
	if err != nil {
		return nil, err
	}
	var frames [][]byte
	for _, r := range recs {
		if r.seq > prev {
			frames = append(frames, r.raw)
		}
	}
	return frames, nil
}

// TestWALPruneMatchesReference: walFramesPast keeps, byte for byte, the
// frames the decodeWAL-based selection keeps, for every prev, on a WAL of
// Add and Remove records and on copies of it cut short, with a flipped
// byte in the header, a frame length or a payload, with a stale record of
// a lower sequence after the last, and with a newer major version.
func TestWALPruneMatchesReference(t *testing.T) {
	pool, _ := newStorePool(3, 6)
	img := walHeader()
	for i, tb := range pool {
		img = append(img, encodeAddRecord(uint64(2*i+1), []*table.Table{tb})...)
		img = append(img, encodeRemoveRecord(uint64(2*i+2), []string{tb.Name})...)
	}
	flip := func(at int) []byte {
		b := bytes.Clone(img)
		b[at] ^= 0x40
		return b
	}
	newer := bytes.Clone(img)
	binary.LittleEndian.PutUint16(newer[8:], FormatMajor+1)
	binary.LittleEndian.PutUint32(newer[12:], crc32.Checksum(newer[:12], castagnoli))
	variants := map[string][]byte{
		"whole":           img,
		"damaged header":  flip(3),
		"flipped length":  flip(walHeaderLen + 1),
		"flipped payload": flip(len(img) / 2),
		"stale record":    append(bytes.Clone(img), encodeRemoveRecord(4, []string{"x"})...),
		"newer major":     newer,
	}
	for cut := 0; cut < len(img); cut += 1 + len(img)/40 {
		variants[fmt.Sprintf("cut at %d", cut)] = img[:cut]
	}
	for name, b := range variants {
		for prev := uint64(0); prev <= uint64(2*len(pool)+1); prev++ {
			got, gerr := walFramesPast(b, prev)
			want, werr := refFramesPast(b, prev)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s, prev %d: error %v, the reference's %v", name, prev, gerr, werr)
			}
			if len(got) != len(want) || !bytes.Equal(bytes.Join(got, nil), bytes.Join(want, nil)) {
				t.Fatalf("%s, prev %d: kept %d frames, the reference %d, or their bytes differ", name, prev, len(got), len(want))
			}
		}
	}
}

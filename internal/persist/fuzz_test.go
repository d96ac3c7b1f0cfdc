package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/difftest"
	"repro/internal/lake"
	"repro/internal/table"
)

// The fuzz targets attack the two parsers that consume bytes straight off
// disk after a crash: whatever the input, they must fail with a typed
// error (ErrCorrupt or VersionError) — never panic, never over-allocate on
// a fabricated count, never accept garbage. FuzzTableBatchRoundTrip pins
// the table codec both parsers share: every batch it encodes decodes to
// the exact cells, and FuzzTableBatchMatchesReference pins its bytes to the
// reference encoder's. CI runs all four in its fuzz smoke; longer local
// runs grow the corpus.

// fuzzWALImage renders a small valid WAL (header plus an add and a remove
// record) as seed material.
func fuzzWALImage() []byte {
	rng := rand.New(rand.NewSource(5))
	img := walHeader()
	img = append(img, encodeAddRecord(1, []*table.Table{difftest.DiffTable(rng, "w0"), difftest.DiffTable(rng, "w1")})...)
	img = append(img, encodeRemoveRecord(2, []string{"w0"})...)
	return img
}

// FuzzWALDecode pins decodeWAL's contract on arbitrary bytes: no panics,
// validLen always a parseable prefix (re-decoding it reproduces the same
// records), sequence numbers strictly monotonic, and the only error ever
// surfaced a version refusal.
func FuzzWALDecode(f *testing.F) {
	img := fuzzWALImage()
	f.Add([]byte{})
	f.Add(walHeader())
	f.Add(img)
	f.Add(img[:len(img)-3])          // torn tail
	f.Add(append(img, img[16:]...))  // duplicated records: seq regression
	f.Add([]byte(walMagic + "tail")) // magic without a full header
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, validLen, err := decodeWAL(b)
		if err != nil {
			var ve *VersionError
			if !errors.As(err, &ve) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if validLen < 0 || validLen > len(b) {
			t.Fatalf("validLen %d out of range for %d input bytes", validLen, len(b))
		}
		if validLen > 0 && validLen < walHeaderLen {
			t.Fatalf("validLen %d shorter than the header", validLen)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].seq <= recs[i-1].seq {
				t.Fatalf("sequence regression %d -> %d accepted", recs[i-1].seq, recs[i].seq)
			}
		}
		// The valid prefix must be stable: decoding it again yields the same
		// records and consumes all of it. This is what recovery relies on
		// when it truncates the log at validLen.
		recs2, validLen2, err2 := decodeWAL(b[:validLen])
		if err2 != nil || validLen2 != validLen || len(recs2) != len(recs) {
			t.Fatalf("prefix not stable: %d recs/%d bytes re-decoded to %d recs/%d bytes (err %v)",
				len(recs), validLen, len(recs2), validLen2, err2)
		}
	})
}

// FuzzSnapshotHeader pins decodeSnapshot on arbitrary bytes: every failure
// is a typed refusal, and anything that passes all checksums must build
// through buildLake (lake.New) or fail it cleanly — not panic. The corpus
// includes a 1.1 file, whose token, domains and SANTOS sections the decoder
// only checksums and skips.
func FuzzSnapshotHeader(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	l, err := lake.New([]*table.Table{difftest.DiffTable(rng, "s0"), difftest.DiffTable(rng, "s1")},
		lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		f.Fatal(err)
	}
	img := encodeSnapshot(stateOf(l), 3)
	legacy, err := os.ReadFile(filepath.Join("testdata", "v1.1", snapName(0)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(img)
	f.Add(img[:snapHeaderLen])
	f.Add(img[:len(img)-5])
	f.Add([]byte(snapMagic + "short"))
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, b []byte) {
		st, _, err := decodeSnapshot("fuzz", b)
		if err != nil {
			var ve *VersionError
			if !errors.Is(err, ErrCorrupt) && !errors.As(err, &ve) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if _, err := buildLake(st); err != nil {
			// A checksum-valid snapshot that lake.New rejects is acceptable
			// for the fuzzer (it fabricated the checksums too); panics and
			// hangs are what this target exists to rule out.
			t.Logf("lake.New rejected decoded state: %v", err)
		}
	})
}

// fuzzBatch turns fuzz input into a small table batch. Cells come from a
// menu that covers every table.Kind and the spellings the codec must keep
// apart — NaN, -0 and +0, Int 82 and Float 82.0, the int64 extremes, empty
// and invalid-UTF-8 strings — plus strings, ints and float bit patterns
// read straight from the input.
func fuzzBatch(b []byte) []*table.Table {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	bytesN := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	u64 := func() uint64 {
		var v uint64
		for _, c := range bytesN(8) {
			v = v<<8 | uint64(c)
		}
		return v
	}
	menu := []func() table.Value{
		table.NullValue,
		table.ProducedNull,
		func() table.Value { return table.StringValue("") },
		func() table.Value { return table.StringValue("\xff\xfe") },
		func() table.Value { return table.StringValue(string(bytesN(int(next() % 6)))) },
		func() table.Value { return table.IntValue(82) },
		func() table.Value { return table.IntValue(math.MinInt64) },
		func() table.Value { return table.IntValue(math.MaxInt64) },
		func() table.Value { return table.IntValue(int64(u64())) },
		func() table.Value { return table.FloatValue(82) },
		func() table.Value { return table.FloatValue(math.NaN()) },
		func() table.Value { return table.FloatValue(math.Copysign(0, -1)) },
		func() table.Value { return table.FloatValue(0) },
		func() table.Value { return table.FloatValue(math.Float64frombits(u64())) },
		func() table.Value { return table.BoolValue(false) },
		func() table.Value { return table.BoolValue(true) },
	}
	ts := make([]*table.Table, 1+int(next()%3))
	for i := range ts {
		t := &table.Table{Name: fmt.Sprintf("t%d%s", i, bytesN(int(next()%4)))}
		for c := 0; c < int(next()%4); c++ {
			t.Columns = append(t.Columns, string(bytesN(int(next()%4))))
		}
		for r := 0; r < int(next()%5); r++ {
			row := make([]table.Value, len(t.Columns))
			for c := range row {
				row[c] = menu[int(next())%len(menu)]()
			}
			t.Rows = append(t.Rows, row)
		}
		ts[i] = t
	}
	return ts
}

// cellPayload renders a cell's kind and exact payload, float bits
// included.
func cellPayload(v table.Value) string {
	switch v.Kind() {
	case table.String:
		return fmt.Sprintf("string %q", v.Str())
	case table.Int:
		return fmt.Sprintf("int %d", v.IntVal())
	case table.Float:
		return fmt.Sprintf("float %#x", math.Float64bits(v.FloatVal()))
	case table.Bool:
		return fmt.Sprintf("bool %t", v.BoolVal())
	}
	return v.Kind().String()
}

// FuzzTableBatchRoundTrip: a table batch the catalog admits decodes to
// exactly what was encoded — every name, header and cell kind and payload bit — and the
// decoder consumes the whole encoding.
func FuzzTableBatchRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 'a', 3, 0, 1, 2, 4, 10, 11, 12, 13, 5, 9, 6, 7, 14, 15, 0, 1, 3, 4, 2, 'x', 'y', 8})
	f.Add([]byte("\x01\x02\xff\x03\x00\x00\x00\x04\x0d\x0d\x0a\x0a\x05\x09\x0b\x0c"))
	f.Fuzz(func(t *testing.T, b []byte) {
		ts := fuzzBatch(b)
		if lake.CheckAdd("fuzz", ts, nil) != nil {
			return // the catalog never admits, and so never encodes, this batch
		}
		var e enc
		e.tables(ts)
		d := &dec{b: e.b}
		got := d.tables(nil)
		if err := d.done(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ts) {
			t.Fatalf("decoded %d tables, encoded %d", len(got), len(ts))
		}
		for i, want := range ts {
			g := got[i]
			if g.Name != want.Name || fmt.Sprintf("%q", g.Columns) != fmt.Sprintf("%q", want.Columns) || len(g.Rows) != len(want.Rows) {
				t.Fatalf("table %d: decoded %q %q with %d rows, encoded %q %q with %d rows",
					i, g.Name, g.Columns, len(g.Rows), want.Name, want.Columns, len(want.Rows))
			}
			for r, row := range want.Rows {
				for c, v := range row {
					if gp, wp := cellPayload(g.Rows[r][c]), cellPayload(v); gp != wp {
						t.Fatalf("table %d cell (%d,%d): decoded %s, encoded %s", i, r, c, gp, wp)
					}
				}
			}
		}
	})
}

// FuzzTableBatchMatchesReference: the table-batch encoder writes the
// reference encoder's bytes (see reference_test.go) for every batch —
// NaN payloads, ±0, Int 82 beside Float 82.0, both null kinds, bools, the
// int64 extremes and strings repeated across tables and columns — whether
// or not the catalog would admit it.
func FuzzTableBatchMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 'a', 3, 0, 1, 2, 4, 10, 11, 12, 13, 5, 9, 6, 7, 14, 15, 0, 1, 3, 4, 2, 'x', 'y', 8})
	f.Add([]byte("\x01\x02\xff\x03\x00\x00\x00\x04\x0d\x0d\x0a\x0a\x05\x09\x0b\x0c"))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		b := make([]byte, 96)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ts := fuzzBatch(b)
		var got, want enc
		got.tables(ts)
		want.refTables(ts)
		if !bytes.Equal(got.b, want.b) {
			t.Fatalf("batch encodes to %d bytes, the reference to %d, and they differ", len(got.b), len(want.b))
		}
		if len(got.b) != cap(got.b) {
			t.Fatalf("%d bytes encoded into a buffer of %d: the size pass is off", len(got.b), cap(got.b))
		}
	})
}

package cluster

import (
	"testing"

	"repro/internal/table"
)

func TestTableBytes(t *testing.T) {
	tbl := table.New("ab", "x", "yz")
	tbl.MustAddRow(table.StringValue("hello"), table.IntValue(1))
	tbl.MustAddRow(table.NullValue(), table.StringValue("q"))
	want := int64(len("ab")+len("x")+len("yz")) + 2*rowHeaderBytes + 4*cellBytes + int64(len("hello")+len("q"))
	if got := tableBytes(tbl); got != want {
		t.Fatalf("tableBytes = %d, want %d", got, want)
	}
}

package table

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestParseNullSpellings(t *testing.T) {
	for _, raw := range []string{"", "  ", "null", "NULL", "na", "N/A", "NaN", "none", "±", "+-"} {
		v := Parse(raw)
		if v.Kind() != Null {
			t.Errorf("Parse(%q) kind = %v, want Null", raw, v.Kind())
		}
		if !v.IsNull() {
			t.Errorf("Parse(%q).IsNull() = false", raw)
		}
	}
}

func TestParseProducedNull(t *testing.T) {
	v := Parse("⊥")
	if v.Kind() != PNull || !v.IsNull() || !v.IsProduced() {
		t.Errorf("Parse(⊥) = kind %v produced %v", v.Kind(), v.IsProduced())
	}
}

func TestParseTypes(t *testing.T) {
	cases := []struct {
		raw  string
		kind Kind
	}{
		{"42", Int},
		{"-7", Int},
		{"3.14", Float},
		{"1e6", Float},
		{"true", Bool},
		{"False", Bool},
		{"Berlin", String},
		{"63%", String},
		{"1.4M", String},
	}
	for _, c := range cases {
		if got := Parse(c.raw).Kind(); got != c.kind {
			t.Errorf("Parse(%q) kind = %v, want %v", c.raw, got, c.kind)
		}
	}
}

func TestParseTrimsWhitespace(t *testing.T) {
	v := Parse("  42 ")
	if v.Kind() != Int || v.IntVal() != 42 {
		t.Errorf("Parse with spaces = %v (%v)", v, v.Kind())
	}
	s := Parse(" Berlin ")
	if s.Str() != "Berlin" {
		t.Errorf("Parse string trim = %q", s.Str())
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := StringValue("x"); v.Kind() != String || v.Str() != "x" {
		t.Error("StringValue broken")
	}
	if v := IntValue(9); v.Kind() != Int || v.IntVal() != 9 {
		t.Error("IntValue broken")
	}
	if v := FloatValue(2.5); v.Kind() != Float || v.FloatVal() != 2.5 {
		t.Error("FloatValue broken")
	}
	if v := BoolValue(true); v.Kind() != Bool || !v.BoolVal() {
		t.Error("BoolValue broken")
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != Null {
		t.Error("zero Value must be a missing null")
	}
}

func TestAsFloat(t *testing.T) {
	if f, ok := IntValue(3).AsFloat(); !ok || f != 3 {
		t.Errorf("IntValue.AsFloat = %v %v", f, ok)
	}
	if f, ok := FloatValue(2.5).AsFloat(); !ok || f != 2.5 {
		t.Errorf("FloatValue.AsFloat = %v %v", f, ok)
	}
	if _, ok := StringValue("x").AsFloat(); ok {
		t.Error("string AsFloat should fail")
	}
	if _, ok := NullValue().AsFloat(); ok {
		t.Error("null AsFloat should fail")
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NullValue(), "±"},
		{ProducedNull(), "⊥"},
		{StringValue("Berlin"), "Berlin"},
		{IntValue(147), "147"},
		{FloatValue(0.16), "0.16"},
		{BoolValue(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestEqualSemantics(t *testing.T) {
	if !NullValue().Equal(ProducedNull()) {
		t.Error("nulls of both kinds must be Equal for set semantics")
	}
	if NullValue().Equal(StringValue("")) {
		t.Error("null must not equal empty string")
	}
	if !IntValue(82).Equal(FloatValue(82.0)) {
		t.Error("int 82 must equal float 82.0 (numeric cross-kind)")
	}
	if IntValue(82).Equal(FloatValue(82.5)) {
		t.Error("82 != 82.5")
	}
	if !StringValue("USA").Equal(StringValue("USA")) {
		t.Error("string equality broken")
	}
	if StringValue("USA").Equal(StringValue("usa")) {
		t.Error("string equality must be case sensitive at the value level")
	}
	if BoolValue(true).Equal(BoolValue(false)) {
		t.Error("bool equality broken")
	}
	if StringValue("1").Equal(IntValue(1)) {
		t.Error("string \"1\" must not equal int 1")
	}
}

func TestKeyConsistentWithEqual(t *testing.T) {
	vals := []Value{
		NullValue(), ProducedNull(), StringValue("a"), StringValue("b"),
		StringValue(""), IntValue(1), IntValue(2), FloatValue(1),
		FloatValue(1.5), BoolValue(true), BoolValue(false),
	}
	for _, a := range vals {
		for _, b := range vals {
			eq := a.Equal(b)
			kq := a.Key() == b.Key()
			if eq != kq {
				t.Errorf("Equal(%v,%v)=%v but Key match=%v", a, b, eq, kq)
			}
		}
	}
}

// TestExactKey pins Exact as identity of kind and payload bits: values
// built apart from the same kind and payload share a key, and every
// distinction Equal forgives (Int vs integral Float, −0 vs +0, NaN
// payloads, the two null kinds) keeps its own key.
func TestExactKey(t *testing.T) {
	build := []func() Value{
		NullValue, ProducedNull,
		func() Value { return StringValue("") },
		func() Value { return StringValue("82") },
		func() Value { return StringValue("true") },
		func() Value { return IntValue(0) },
		func() Value { return IntValue(82) },
		func() Value { return IntValue(1e15) },
		func() Value { return IntValue(math.MinInt64) },
		func() Value { return FloatValue(0) },
		func() Value { return FloatValue(math.Copysign(0, -1)) },
		func() Value { return FloatValue(82) },
		func() Value { return FloatValue(1e15) },
		func() Value { return FloatValue(math.NaN()) },
		func() Value { return FloatValue(math.Float64frombits(0xfff8000000000000)) },
		func() Value { return BoolValue(false) },
		func() Value { return BoolValue(true) },
	}
	for i, bi := range build {
		for j, bj := range build {
			a, b := bi(), bj()
			if same := a.Exact() == b.Exact(); same != (i == j) {
				t.Errorf("Exact(%v %v) == Exact(%v %v) is %v", a.Kind(), a, b.Kind(), b, same)
			}
		}
	}
}

// TestValueSize pins the cell layout: one word for every non-string
// payload keeps a Value at 32 bytes where pointers are 8 bytes.
func TestValueSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("cell size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

func TestCompareOrderingProperties(t *testing.T) {
	vals := []Value{
		NullValue(), ProducedNull(), BoolValue(false), BoolValue(true),
		IntValue(-3), FloatValue(0.5), IntValue(2), StringValue("a"), StringValue("z"),
	}
	// Antisymmetry and reflexivity.
	for _, a := range vals {
		if a.Compare(a) != 0 {
			t.Errorf("Compare(%v,%v) != 0", a, a)
		}
		for _, b := range vals {
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("Compare antisymmetry broken for %v,%v", a, b)
			}
		}
	}
	// Transitivity over the fixed chain.
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[i].Compare(vals[j]) > 0 {
				t.Errorf("chain order broken at %v vs %v", vals[i], vals[j])
			}
		}
	}
}

// TestCompareAgreesWithEqualAtInt64Edge: float64 rounds every Int near
// MaxInt64 to 2^63, a float just outside the int64 range. Compare must still
// order such a pair strictly, as Equal tells them apart, or sorting cannot
// canonicalize a bag holding both and EqualUnordered depends on row order.
func TestCompareAgreesWithEqualAtInt64Edge(t *testing.T) {
	above := FloatValue(1 << 63)
	below := FloatValue(math.Nextafter(-(1 << 63), math.Inf(-1)))
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{IntValue(math.MaxInt64), above, -1},
		{IntValue(math.MaxInt64 - 1), above, -1},
		{IntValue(math.MinInt64), FloatValue(-(1 << 63)), 0},
		{IntValue(math.MinInt64), below, 1},
		{IntValue(0), FloatValue(math.Inf(1)), -1},
	} {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
		if eq := c.a.Equal(c.b); eq != (c.want == 0) {
			t.Errorf("Equal(%v, %v) = %v", c.a, c.b, eq)
		}
		if kq := c.a.Key() == c.b.Key(); kq != (c.want == 0) {
			t.Errorf("Key(%v) == Key(%v) is %v", c.a, c.b, kq)
		}
	}
	x, y := New("t", "v"), New("t", "v")
	x.MustAddRow(IntValue(math.MaxInt64))
	x.MustAddRow(above)
	y.MustAddRow(above)
	y.MustAddRow(IntValue(math.MaxInt64))
	if !x.EqualUnordered(y) {
		t.Error("EqualUnordered depends on row order at the int64 edge")
	}
}

func TestParseRoundTripProperty(t *testing.T) {
	// Rendering a parsed value and re-parsing it yields an Equal value.
	f := func(s string) bool {
		v := Parse(s)
		return Parse(v.String()).Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseFloatRoundTripProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := FloatValue(x)
		return Parse(v.String()).Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Null: "null", PNull: "pnull", String: "string", Int: "int", Float: "float", Bool: "bool"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// Package table implements the typed in-memory table engine that underpins
// DIALITE. It plays the role pandas plays in the paper's Python prototype:
// tables are ordered collections of rows over named (possibly unreliable or
// empty) column headers, and cells are typed values.
//
// Two kinds of nulls are distinguished, following ALITE's terminology:
//
//   - a missing null (rendered "±") is a null present in the input data;
//   - a produced null (rendered "⊥") is introduced by an integration
//     operator (outer union, outer join, full disjunction) to pad tuples.
//
// Both kinds behave identically for join and subsumption semantics (nulls
// never join and are subsumed by any value); the distinction is preserved so
// that integration output can be displayed and audited exactly as in the
// paper's figures.
package table

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The value kinds. The zero value of Value has kind Null, so a freshly
// allocated row is all missing nulls.
const (
	Null  Kind = iota // missing null, present in source data ("±")
	PNull             // produced null, introduced by integration ("⊥")
	String
	Int
	Float
	Bool
)

// String returns the kind name, for diagnostics.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case PNull:
		return "pnull"
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single typed cell. The zero Value is a missing null.
// Values are immutable; all methods are value receivers.
//
// One word holds every non-string payload: n is the Int, the Float's
// math.Float64bits, or the Bool (1 or 0), so a cell is 32 bytes on 64-bit
// platforms. Kinds that do not use s or n leave them zero.
type Value struct {
	kind Kind
	s    string
	n    uint64
}

// NullValue returns a missing null (the "±" of the paper's figures).
func NullValue() Value { return Value{kind: Null} }

// ProducedNull returns a produced null (the "⊥" of the paper's figures).
func ProducedNull() Value { return Value{kind: PNull} }

// StringValue returns a string cell.
func StringValue(s string) Value { return Value{kind: String, s: s} }

// IntValue returns an integer cell.
func IntValue(i int64) Value { return Value{kind: Int, n: uint64(i)} }

// FloatValue returns a floating-point cell.
func FloatValue(f float64) Value { return Value{kind: Float, n: math.Float64bits(f)} }

// BoolValue returns a boolean cell.
func BoolValue(b bool) Value {
	if b {
		return Value{kind: Bool, n: 1}
	}
	return Value{kind: Bool}
}

// nullTokens are raw CSV spellings interpreted as missing nulls.
var nullTokens = map[string]bool{
	"":     true,
	"null": true,
	"na":   true,
	"n/a":  true,
	"nan":  true,
	"none": true,
	"±":    true,
	"+-":   true,
}

// Parse converts a raw string (e.g. a CSV field) into a typed Value using
// type inference: null spellings, then integer, float, boolean, and finally
// string. Leading/trailing whitespace is ignored for inference but preserved
// in string values after trimming (open data is noisy; we canonicalize the
// frame, not the content).
func Parse(raw string) Value {
	t := strings.TrimSpace(raw)
	if nullTokens[strings.ToLower(t)] {
		return NullValue()
	}
	if t == "⊥" {
		return ProducedNull()
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return IntValue(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return FloatValue(f)
	}
	switch strings.ToLower(t) {
	case "true":
		return BoolValue(true)
	case "false":
		return BoolValue(false)
	}
	return StringValue(t)
}

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is a null of either kind.
func (v Value) IsNull() bool { return v.kind == Null || v.kind == PNull }

// IsProduced reports whether the value is a produced null.
func (v Value) IsProduced() bool { return v.kind == PNull }

// Str returns the underlying string; it is only meaningful for String kind.
func (v Value) Str() string { return v.s }

// IntVal returns the underlying int64; only meaningful for Int kind.
func (v Value) IntVal() int64 { return v.int() }

// FloatVal returns the underlying float64; only meaningful for Float kind.
func (v Value) FloatVal() float64 { return v.float() }

// BoolVal returns the underlying bool; only meaningful for Bool kind.
func (v Value) BoolVal() bool { return v.bool() }

// int, float and bool read n as the payload of the named kind; each is
// only meaningful for that kind.
func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }
func (v Value) bool() bool     { return v.n != 0 }

// AsFloat converts numeric values to float64. The second result reports
// whether the value was numeric (Int or Float).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case Int:
		return float64(v.int()), true
	case Float:
		return v.float(), true
	default:
		return 0, false
	}
}

// String renders the value the way the paper's figures do: "±" for missing
// nulls and "⊥" for produced nulls.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "±"
	case PNull:
		return "⊥"
	case String:
		return v.s
	case Int:
		return strconv.FormatInt(v.int(), 10)
	case Float:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case Bool:
		return strconv.FormatBool(v.bool())
	default:
		return "?"
	}
}

// Key returns a canonical string key under which equal values (per Equal)
// collide and unequal values do not. Both null kinds share one key because
// they are indistinguishable to join and subsumption semantics.
func (v Value) Key() string {
	switch v.kind {
	case Null, PNull:
		return "\x00N"
	case String:
		return "\x01" + v.s
	case Int:
		return "\x02" + strconv.FormatInt(v.int(), 10)
	case Float:
		// Integral floats collide with ints so that CSV re-parsing noise
		// (e.g. "82" vs "82.0") does not break joins.
		f := v.float()
		if Integral(f) {
			return "\x02" + strconv.FormatInt(int64(f), 10)
		}
		return "\x03" + strconv.FormatFloat(f, 'g', -1, 64)
	case Bool:
		if v.bool() {
			return "\x04T"
		}
		return "\x04F"
	default:
		return "\x05?"
	}
}

// ExactKey is a comparable identity of one exact cell value: its kind and
// raw payload. Unlike Key it keeps every distinction Equal forgives, so
// Int 82 and Float 82, −0 and +0, NaN payloads, and the two null kinds
// each get their own key.
type ExactKey Value

// Exact returns the value's ExactKey: the cell's own fields, since the
// constructors zero the fields a kind does not use. Two values share it
// exactly when they have the same kind and payload bits, so every function
// of kind and payload (the rendering among them) agrees on values with one
// key.
func (v Value) Exact() ExactKey { return ExactKey(v) }

// Integral reports whether f is a whole number inside the int64 range, so
// that int64(f) is exact. The range is checked explicitly: Go leaves
// int64(f) implementation-defined for an out-of-range f (amd64 yields
// MinInt64, arm64 saturates to MaxInt64), so the round trip
// f == float64(int64(f)) would call 2^63 integral on some platforms.
func Integral(f float64) bool {
	return f >= -(1<<63) && f < 1<<63 && f == math.Trunc(f)
}

// intRepr reports whether the numeric value is exactly representable as an
// int64 — Int kind, or an integral Float — and that representation. Key and
// Dict use the same integrality test, so intRepr-equality is exactly Key
// collision for int-like numerics.
func (v Value) intRepr() (int64, bool) {
	switch v.kind {
	case Int:
		return v.int(), true
	case Float:
		if f := v.float(); Integral(f) {
			return int64(f), true
		}
	}
	return 0, false
}

// Equal reports value equality under join semantics: both-null is equal
// (regardless of null kind), numeric values compare across Int/Float, and
// otherwise kind and payload must agree. Note that under SQL semantics
// null != null; DIALITE's integration layer never *joins* on nulls (callers
// check IsNull first) but needs deterministic tuple equality for set
// operations, which this provides.
//
// Equal agrees exactly with Key collision (and therefore with Dict ID
// equality): int-like numerics compare as exact int64s — so Int(2^53+1)
// does not equal Float(2^53) despite rounding to the same float64 — and
// NaN equals NaN, keeping set semantics deterministic.
func (v Value) Equal(o Value) bool {
	if v.IsNull() || o.IsNull() {
		return v.IsNull() && o.IsNull()
	}
	if (v.kind == Int || v.kind == Float) && (o.kind == Int || o.kind == Float) {
		vi, vIsInt := v.intRepr()
		oi, oIsInt := o.intRepr()
		if vIsInt || oIsInt {
			return vIsInt && oIsInt && vi == oi
		}
		// Both non-integral floats; NaNs collide under Key, so they are
		// equal here too.
		vf, of := v.float(), o.float()
		if vf != vf || of != of {
			return vf != vf && of != of
		}
		return vf == of
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case String:
		return v.s == o.s
	case Bool:
		return v.n == o.n
	default:
		return false
	}
}

// Compare orders values deterministically: nulls first, then by kind class
// (bool < numeric < string), then by payload. It is used to canonicalize row
// order for unordered table comparison.
func (v Value) Compare(o Value) int {
	ck := func(x Value) int {
		switch x.kind {
		case Null, PNull:
			return 0
		case Bool:
			return 1
		case Int, Float:
			return 2
		default:
			return 3
		}
	}
	a, b := ck(v), ck(o)
	if a != b {
		if a < b {
			return -1
		}
		return 1
	}
	switch a {
	case 0:
		return 0
	case 1:
		return cmp.Compare(v.n, o.n) // false (0) < true (1)
	case 2:
		// Int-like pairs compare as exact int64s, so values float64
		// rounding cannot distinguish (e.g. 2^53 vs 2^53+1) still order
		// consistently with Equal.
		vi, vIsInt := v.intRepr()
		oi, oIsInt := o.intRepr()
		if vIsInt && oIsInt {
			switch {
			case vi < oi:
				return -1
			case vi > oi:
				return 1
			default:
				return 0
			}
		}
		vf, _ := v.AsFloat()
		of, _ := o.AsFloat()
		// NaN orders before every other numeric (and equal to itself);
		// plain float comparison would report 0 against everything, making
		// canonical row order nondeterministic.
		vn, on := vf != vf, of != of
		if vn || on {
			switch {
			case vn && on:
				return 0
			case vn:
				return -1
			default:
				return 1
			}
		}
		switch {
		case vf < of:
			return -1
		case vf > of:
			return 1
		case vIsInt != oIsInt:
			// float64 rounds an Int near MaxInt64 to 2^63, a float
			// outside the int64 range and so above every Int.
			if vIsInt {
				return -1
			}
			return 1
		default:
			return 0
		}
	default:
		return strings.Compare(v.s, o.s)
	}
}

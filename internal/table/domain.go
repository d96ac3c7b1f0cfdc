package table

import (
	"fmt"

	"repro/internal/minhash"
)

// Domain is one extracted column: the identifiers discovery reports results
// by and the column's normalized, deduplicated value set, as IDs in a
// TokenDict. It is the one input type of the joinable-search indexes: a lake
// extracts each domain once (NewDomain), interns its values into the lake's
// TokenDict (Intern), and hands the same slice to JOSIE and the LSH
// Ensemble, which index the IDs as they are. Their one precondition is that
// every domain carries deduplicated IDs, from the dictionary the index is
// built over, for its non-empty values; lake extraction guarantees it for
// indexed domains and ResolveDomain for queries.
//
// A lake domain is its IDs: once the build's KB phase has read the value
// strings, the lake drops them, and AppendStrings renders the tokens through
// the dictionary. A query domain (ResolveDomain) keeps Values and Fingerprints,
// since its out-of-vocabulary tokens have no ID.
type Domain struct {
	Table      string // owning table name
	Column     int    // column index within the table
	ColumnName string // column header (may be empty/unreliable)
	// Values is the normalized, deduplicated value set, or nil on a lake
	// domain, whose tokens are read by ID (see AppendStrings).
	Values []string
	// IDs is the value set interned into the TokenDict the indexes are built
	// on, parallel to Values when Values is kept; 0 marks a query token
	// outside the vocabulary.
	IDs []uint32
	// Fingerprints, when set, are the values' MinHash fingerprints, parallel
	// to IDs. A ResolveDomain query domain carries them, because its
	// out-of-vocabulary tokens have no cached fingerprint. Lake domains leave
	// it nil: signing reads each token's fingerprint from the TokenDict.
	Fingerprints []uint64

	key  string     // "table[col]", precomputed by NewDomain
	dict *TokenDict // the dictionary Intern interned IDs into
}

// NewDomain returns the domain of column col of t, with its key precomputed.
func NewDomain(t *Table, col int, values []string, ids []uint32) Domain {
	return Domain{Table: t.Name, Column: col, ColumnName: t.Columns[col], Values: values, IDs: ids, key: domainKey(t.Name, col)}
}

// Intern sets IDs to Values interned into dict, and remembers dict, so that
// AppendStrings still renders the tokens once Values is dropped.
func (d *Domain) Intern(dict *TokenDict) {
	d.IDs = dict.InternAll(d.Values, nil)
	d.dict = dict
}

// AppendStrings appends the domain's normalized value set to dst and
// returns it: Values when the domain keeps it, otherwise its IDs rendered
// through the dictionary Intern interned them into, in the same order.
func (d *Domain) AppendStrings(dst []string) []string {
	if d.Values != nil || d.dict == nil {
		return append(dst, d.Values...)
	}
	return d.dict.Tokens(d.IDs, dst)
}

// Key identifies the domain as "table[col]": precomputed for domains made by
// NewDomain, formatted on the fly for any other.
func (d *Domain) Key() string {
	if d.key != "" {
		return d.key
	}
	return domainKey(d.Table, d.Column)
}

func domainKey(table string, col int) string { return fmt.Sprintf("%s[%d]", table, col) }

// ResolveDomain returns the transient query-side domain of values — a
// normalized, deduplicated value set, as tokenize.ValueSet and lake
// extraction produce — resolved against dict by lookup, never interning:
// vocabulary tokens get their ID and cached fingerprint, and a token outside
// the vocabulary (which can never intersect an indexed domain, though it
// still counts toward |Q|) keeps ID 0 and is hashed on the fly.
func ResolveDomain(dict *TokenDict, values []string) *Domain {
	d := &Domain{Values: values, IDs: make([]uint32, len(values)), Fingerprints: make([]uint64, len(values))}
	for i, tok := range values {
		if id := dict.Lookup(tok); id != 0 {
			d.IDs[i] = id
			d.Fingerprints[i] = dict.Fingerprint(id)
		} else {
			d.Fingerprints[i] = minhash.Fingerprint(tok)
		}
	}
	return d
}

package table

import (
	"sync"

	"repro/internal/minhash"
)

// TokenDict interns normalized string tokens — the members of discovery
// value sets (tokenize.ValueSet output) — into dense uint32 token IDs, the
// integer token universe the discovery indexes (JOSIE postings, LSH
// Ensemble verification) are built on. It is the token-level sibling of
// Dict, which interns whole cell Values.
//
// IDs are dense and start at 1; 0 is the "unknown token" sentinel returned
// by Lookup for tokens never interned. The assignment order — and
// therefore the concrete IDs — depends on interning order, which is
// scheduling-dependent when tables are interned concurrently; nothing may
// depend on ID order, only on ID equality.
//
// Each token's 64-bit FNV-1a fingerprint (the hash MinHash signatures are
// computed from, see minhash.Fingerprints) is computed once at interning
// and cached, so query-time signing of lake-vocabulary tokens never
// re-hashes the string.
//
// A TokenDict is safe for concurrent use. Like Dict, it holds at most
// ~4 billion distinct tokens (IDs are uint32, 0 reserved); interning past
// that limit panics.
type TokenDict struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	toks []string // toks[id-1] is the token interned under id
	fps  []uint64 // fps[id-1] is the token's 64-bit FNV-1a fingerprint
}

// NewTokenDict returns an empty token dictionary.
func NewTokenDict() *TokenDict {
	return &TokenDict{ids: make(map[string]uint32)}
}

// Intern returns the ID of tok, assigning a fresh one on first sight.
func (d *TokenDict) Intern(tok string) uint32 {
	d.mu.RLock()
	id := d.ids[tok]
	d.mu.RUnlock()
	if id != 0 {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id := d.ids[tok]; id != 0 {
		return id
	}
	if idCapacityExceeded(len(d.toks)) {
		panic("table: TokenDict full: more than ~4B distinct tokens (uint32 ID space exhausted)")
	}
	d.toks = append(d.toks, tok)
	d.fps = append(d.fps, minhash.Fingerprint(tok))
	id = uint32(len(d.toks))
	d.ids[tok] = id
	return id
}

// InternAll interns every token of toks into dst, which is grown as needed
// and returned. The read lock is taken once for the whole batch; the write
// lock only when the batch carries tokens never seen before, and the FNV
// hashing of those new tokens happens outside it, so concurrent workers
// interning disjoint vocabularies (lake extraction) serialize only on the
// map/slice inserts.
func (d *TokenDict) InternAll(toks []string, dst []uint32) []uint32 {
	if cap(dst) < len(toks) {
		dst = make([]uint32, len(toks))
	}
	dst = dst[:len(toks)]
	var missed []int
	d.mu.RLock()
	for i, tok := range toks {
		if dst[i] = d.ids[tok]; dst[i] == 0 {
			missed = append(missed, i)
		}
	}
	d.mu.RUnlock()
	if len(missed) == 0 {
		return dst
	}
	missedFps := make([]uint64, len(missed))
	for j, i := range missed {
		missedFps[j] = minhash.Fingerprint(toks[i])
	}
	d.mu.Lock()
	for j, i := range missed {
		tok := toks[i]
		// Another worker may have interned tok since the read pass.
		if dst[i] = d.ids[tok]; dst[i] != 0 {
			continue
		}
		if idCapacityExceeded(len(d.toks)) {
			d.mu.Unlock()
			panic("table: TokenDict full: more than ~4B distinct tokens (uint32 ID space exhausted)")
		}
		d.toks = append(d.toks, tok)
		d.fps = append(d.fps, missedFps[j])
		dst[i] = uint32(len(d.toks))
		d.ids[tok] = dst[i]
	}
	d.mu.Unlock()
	return dst
}

// Lookup returns the ID of tok without interning it; 0 means tok has never
// been interned. Query-side code uses Lookup so transient query tokens do
// not grow the lake dictionary.
func (d *TokenDict) Lookup(tok string) uint32 {
	d.mu.RLock()
	id := d.ids[tok]
	d.mu.RUnlock()
	return id
}

// Token returns the token string interned under id and whether the ID is
// known. ID 0 is never known.
func (d *TokenDict) Token(id uint32) (string, bool) {
	if id == 0 {
		return "", false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int64(id) > int64(len(d.toks)) {
		return "", false
	}
	return d.toks[id-1], true
}

// Fingerprint returns the cached 64-bit FNV-1a fingerprint of the token
// interned under id. It panics on unknown IDs: fingerprints exist exactly
// for interned tokens.
func (d *TokenDict) Fingerprint(id uint32) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.fps[id-1]
}

// Fingerprints fills dst (reused when it has capacity, discarding its
// previous contents) with the cached fingerprints of ids, in ids order,
// and returns it. All IDs must be interned.
func (d *TokenDict) Fingerprints(ids []uint32, dst []uint64) []uint64 {
	if cap(dst) < len(ids) {
		dst = make([]uint64, 0, len(ids))
	}
	dst = dst[:0]
	d.mu.RLock()
	for _, id := range ids {
		dst = append(dst, d.fps[id-1])
	}
	d.mu.RUnlock()
	return dst
}

// Tokens appends the tokens interned under ids to dst, in ids order, and
// returns it. All IDs must be interned.
func (d *TokenDict) Tokens(ids []uint32, dst []string) []string {
	d.mu.RLock()
	for _, id := range ids {
		dst = append(dst, d.toks[id-1])
	}
	d.mu.RUnlock()
	return dst
}

// Len reports how many distinct tokens have been interned.
func (d *TokenDict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.toks)
}

package lshensemble

import (
	"fmt"

	"repro/internal/sketch"
	"repro/internal/table"
)

// This file is the persistence surface of the LSH Ensemble. Sketch signing
// dominates a build (NumHashes permutation mixes per fingerprint); the
// sketches are small, deterministic (fixed seed) and immutable per slot, so Export hands them out and Restore rebuilds the
// whole index from cached sketches without signing a single domain — the
// equi-depth partitioning and band tables are derived from those sketches
// lazily, on the first query or mutation. Banding is deterministic given
// sketches and options, so a restored index is query-identical to the
// exporting one.

// Options returns the index's construction options (defaults applied).
func (ix *Index) Options() Options { return ix.opts }

// ExportSignatures returns the cached sketch of every live domain, keyed by
// domain key ("table[col]"). The sketches are the index's own immutable
// per-slot arrays; callers must not modify them.
func (ix *Index) ExportSignatures() map[string][]uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[string][]uint64, ix.liveCount)
	for slot := range ix.domains {
		if ix.alive[slot] {
			out[ix.domains[slot].key] = ix.signatures[slot]
		}
	}
	return out
}

// Restore constructs the ensemble over domains whose sketches are already
// known, skipping the signing pass. signatures is parallel to domains and
// every sketch must be exactly NumHashes words (after defaulting) — the
// restored index signs queries with a fresh builder from opts, which only
// agrees with foreign sketches of matching size and seed. An engine other
// than MinHash is an error here, never a panic: this is the path persisted
// foreign values arrive through. dict
// follows the BuildWithDict contract: when non-nil, precomputed Domain.IDs
// are trusted as interned in it.
//
// The partition layout, band tables and query behavior of the result are
// identical to BuildWithDict over the same domains and options.
func Restore(domains []Domain, signatures [][]uint64, opts Options, dict *table.TokenDict) (*Index, error) {
	if len(signatures) != len(domains) {
		return nil, fmt.Errorf("lshensemble: restore: %d signatures for %d domains", len(signatures), len(domains))
	}
	opts = opts.withDefaults()
	builder, err := sketch.New(opts.sketchParams())
	if err != nil {
		return nil, fmt.Errorf("lshensemble: restore: %w", err)
	}
	trustIDs := dict != nil
	if dict == nil {
		dict = table.NewTokenDict()
	}
	ix := &Index{
		opts:      opts,
		builder:   builder,
		dict:      dict,
		trustIDs:  trustIDs,
		domains:   append([]Domain(nil), domains...),
		alive:     make([]bool, len(domains)),
		partOf:    make([]int32, len(domains)),
		liveCount: len(domains),
	}
	ix.scratch.New = newQueryScratch
	ix.signatures = make([]sketch.Sketch, len(ix.domains))
	sigArena := make([]uint64, len(ix.domains)*opts.NumHashes)
	for i := range ix.domains {
		if err := builder.Validate(signatures[i]); err != nil {
			return nil, fmt.Errorf("lshensemble: restore: signature %d: %w", i, err)
		}
		d := &ix.domains[i]
		d.key = fmt.Sprintf("%s[%d]", d.Table, d.Column)
		if d.IDs == nil || !trustIDs {
			d.IDs = dict.InternAll(d.Values, nil)
		}
		// Fingerprints are deliberately left as given (usually nil): they
		// are only read to sign a domain, and every restored domain carries
		// its persisted sketch. Domains added after restore arrive with
		// their own cached fingerprints from lake extraction.
		slot := sigArena[i*opts.NumHashes : i*opts.NumHashes : (i+1)*opts.NumHashes]
		ix.signatures[i] = append(slot, signatures[i]...)
		ix.alive[i] = true
		ix.partOf[i] = -1
	}
	// The partitioning and band tables are derived purely from the sketches
	// above; defer them to the first query or mutation so restore itself
	// stays proportional to the persisted bytes.
	ix.partsStale.Store(true)
	return ix, nil
}

// Package josie implements exact top-k overlap set-similarity search in the
// style of JOSIE (Zhu, Deng, Nargesian, Miller — SIGMOD 2019), the other
// joinable-table discovery method cited by the paper. Unlike the LSH
// Ensemble (approximate, threshold-based), JOSIE answers exact top-k
// queries: the k indexed column domains with the largest overlap |Q∩X|.
//
// The index lives entirely in an integer token universe: it is built over
// the lake's domains as they are, each carrying its members' IDs in the
// lake-wide table.TokenDict, and the inverted index maps dense token IDs to
// posting lists stored as one contiguous []int32 arena with per-token
// offsets (CSR layout) — no string-keyed map, no per-token slice headers. Queries process tokens in
// ascending global-frequency order with a prefix-filter early termination:
// once fewer unread query tokens remain than the current k-th best overlap,
// no unseen candidate can reach the top k, so only already-seen candidates
// are updated. Candidate counts accumulate in a flat slice indexed by set,
// and the running k-th best overlap is maintained with a count histogram
// instead of re-sorting. This mirrors JOSIE's core insight (adaptively stop
// creating new candidates) without its cost model.
//
// The index is immutable once built: a mutated lake publishes a fresh Build
// over its surviving domains (see lake.Lake), so queries take no lock and a
// reader keeps answering from the build it loaded.
package josie

import (
	"context"
	"math"
	"sort"

	"repro/internal/table"
	"repro/internal/tokenize"
)

// Set is one indexed column domain: the lake's extracted domain type,
// indexed as it is.
type Set = table.Domain

// Index is an inverted index over set members: the posting list of token
// id is posts[postStart[id]:postStart[id+1]], ascending by set index. It is
// never modified after Build returns.
type Index struct {
	sets []Set
	dict *table.TokenDict

	numTokens int      // dict size at build time; larger IDs have no postings
	postStart []uint32 // len numTokens+2; postStart[0] and [1] cover the unused ID 0
	posts     []int32
}

// Build constructs the inverted index over dict. Every set must carry
// deduplicated IDs from dict for its non-empty values, as lake extraction
// (lake.New, Lake.Add) gives its domains; the index keeps the sets slice as
// it is and never writes to it. Sharing one dictionary across indexes makes
// query-side token lookups agree lake-wide.
//
// The build is one integer counting pass: posting lists are filled in set
// order, so the index is identical for the same sets and dictionary.
func Build(sets []Set, dict *table.TokenDict) *Index {
	// Postings store set indices as int32; refuse to wrap rather than
	// silently corrupt the index.
	if len(sets) > math.MaxInt32 {
		panic("josie: index full: more than ~2B sets (int32 set-index space exhausted)")
	}
	ix := &Index{sets: sets, dict: dict}
	ix.fillCSR()
	return ix
}

// fillCSR builds the arena over every set: count token frequencies,
// prefix-sum into offsets, and fill in set order so every posting list
// stays sorted by set index.
func (ix *Index) fillCSR() {
	ix.numTokens = ix.dict.Len()
	counts := make([]uint32, ix.numTokens+1)
	total := 0
	for i := range ix.sets {
		for _, id := range ix.sets[i].IDs {
			counts[id]++
		}
		total += len(ix.sets[i].IDs)
	}
	// The CSR offsets are uint32; like the dictionaries' ID guards, refuse
	// to wrap rather than silently corrupt the index (tokens repeat across
	// sets, so total postings can exceed the distinct-token count).
	if uint64(total) > math.MaxUint32 {
		panic("josie: index full: more than ~4B total postings (uint32 offset space exhausted)")
	}
	ix.postStart = make([]uint32, ix.numTokens+2)
	for id := 1; id <= ix.numTokens; id++ {
		ix.postStart[id+1] = ix.postStart[id] + counts[id]
	}
	cursor := counts // reuse as fill cursors
	copy(cursor, ix.postStart[:ix.numTokens+1])
	ix.posts = make([]int32, total)
	for i := range ix.sets {
		for _, id := range ix.sets[i].IDs {
			ix.posts[cursor[id]] = int32(i)
			cursor[id]++
		}
	}
}

// postings returns the posting list of token id (empty for unknown IDs and
// for tokens interned after the build).
func (ix *Index) postings(id uint32) []int32 {
	if id == 0 || int(id) > ix.numTokens {
		return nil
	}
	return ix.posts[ix.postStart[id]:ix.postStart[id+1]]
}

// NumSets reports how many sets are indexed.
func (ix *Index) NumSets() int { return len(ix.sets) }

// Result is one ranked answer.
type Result struct {
	Set     *Set
	Overlap int // exact |Q∩X|
}

// queryToken is one query token with postings, carried through the
// frequency sort with its string form for deterministic tie-breaking.
type queryToken struct {
	id   uint32
	freq int
	tok  string
}

// TopKCtx returns the k sets with the largest exact overlap with the query
// (after normalization), ranked by overlap descending with deterministic
// tie-breaking by key. Sets with zero overlap are never returned. k<=0
// returns all sets with positive overlap. Query tokens are looked up, not
// interned: transient queries never grow the dictionary. It is TopKIDsCtx
// over the normalized raw values' dictionary IDs (0 for tokens outside the
// vocabulary, which TopKIDsCtx skips).
func (ix *Index) TopKCtx(ctx context.Context, rawQuery []string, k int) ([]Result, error) {
	query := tokenize.ValueSet(rawQuery)
	ids := make([]uint32, len(query))
	for i, tok := range query {
		ids[i] = ix.dict.Lookup(tok)
	}
	return ix.TopKIDsCtx(ctx, ids, k)
}

// TopKIDsCtx answers a query given directly as token IDs from the index's
// dictionary, deduplicated apart from the unknown-token ID 0 — a lake
// domain's cached IDs or a resolved foreign column's — ranked as TopKCtx
// ranks. The posting-list merge checks ctx between query tokens and returns
// (nil, ctx.Err()) once the context is cancelled.
func (ix *Index) TopKIDsCtx(ctx context.Context, ids []uint32, k int) ([]Result, error) {
	if len(ids) == 0 || len(ix.sets) == 0 {
		return nil, ctx.Err()
	}
	tokens := make([]queryToken, 0, len(ids))
	for _, id := range ids {
		if f := len(ix.postings(id)); f > 0 {
			tok, _ := ix.dict.Token(id)
			tokens = append(tokens, queryToken{id: id, freq: f, tok: tok})
		}
	}
	return ix.topKTokens(ctx, tokens, k)
}

// topKTokens runs the frequency-ordered prefix-filtered merge. Tokens are
// processed rarest-first (ties broken by token string, keeping the merge
// order — and therefore the admitted candidate set — independent of ID
// assignment order): rare tokens discriminate candidates early, making the
// prefix filter bite sooner.
func (ix *Index) topKTokens(ctx context.Context, tokens []queryToken, k int) ([]Result, error) {
	if len(tokens) == 0 {
		return nil, ctx.Err()
	}
	done := ctx.Done()
	sort.Slice(tokens, func(a, b int) bool {
		if tokens[a].freq != tokens[b].freq {
			return tokens[a].freq < tokens[b].freq
		}
		return tokens[a].tok < tokens[b].tok
	})
	// cnt[si] is the running overlap of set si (0 = not a candidate; admitted
	// candidates always count at least 1). hist[c] counts candidates whose
	// running overlap is exactly c, so the k-th best overlap is read off the
	// histogram's suffix instead of re-sorting candidate counts.
	cnt := make([]int32, len(ix.sets))
	touched := make([]int32, 0, 64)
	hist := make([]int32, len(tokens)+1)
	maxCount := 0
	for i, qt := range tokens {
		// One checkpoint per query token: a token's posting merge is O(sets),
		// short next to the whole query, so cancellation latency stays small
		// without a per-posting branch in the hot loop.
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		remaining := len(tokens) - i // including qt itself
		admitNew := true
		if k > 0 && len(touched) >= k {
			// A brand-new candidate can reach at most `remaining`, so skip
			// admission when it cannot displace the incumbent top k.
			if kthFromHist(hist, maxCount, k) >= remaining {
				admitNew = false
			}
		}
		for _, si := range ix.postings(qt.id) {
			if c := cnt[si]; c > 0 {
				hist[c]--
				cnt[si] = c + 1
				hist[c+1]++
				if int(c+1) > maxCount {
					maxCount = int(c + 1)
				}
			} else if admitNew {
				cnt[si] = 1
				hist[1]++
				if maxCount < 1 {
					maxCount = 1
				}
				touched = append(touched, si)
			}
		}
	}
	results := make([]Result, 0, len(touched))
	for _, si := range touched {
		results = append(results, Result{Set: &ix.sets[si], Overlap: int(cnt[si])})
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].Overlap != results[b].Overlap {
			return results[a].Overlap > results[b].Overlap
		}
		return results[a].Set.Key() < results[b].Set.Key()
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results, nil
}

// kthFromHist returns the k-th largest running overlap recorded in the
// count histogram (1-based); 0 when fewer than k candidates exist. The scan
// walks at most maxCount buckets — bounded by the query length.
func kthFromHist(hist []int32, maxCount, k int) int {
	cum := 0
	for c := maxCount; c >= 1; c-- {
		cum += int(hist[c])
		if cum >= k {
			return c
		}
	}
	return 0
}

// Package josie implements exact top-k overlap set-similarity search in the
// style of JOSIE (Zhu, Deng, Nargesian, Miller — SIGMOD 2019), the other
// joinable-table discovery method cited by the paper. Unlike the LSH
// Ensemble (approximate, threshold-based), JOSIE answers exact top-k
// queries: the k indexed column domains with the largest overlap |Q∩X|.
//
// The index lives entirely in an integer token universe: set members intern
// into a table.TokenDict (shared lake-wide when built through lake.New), and
// the inverted index maps dense token IDs to posting lists stored as one
// contiguous []int32 arena with per-token offsets (CSR layout) — no
// string-keyed map, no per-token slice headers. Queries process tokens in
// ascending global-frequency order with a prefix-filter early termination:
// once fewer unread query tokens remain than the current k-th best overlap,
// no unseen candidate can reach the top k, so only already-seen candidates
// are updated. Candidate counts accumulate in a flat slice indexed by set,
// and the running k-th best overlap is maintained with a count histogram
// instead of re-sorting. This mirrors JOSIE's core insight (adaptively stop
// creating new candidates) without its cost model.
//
// The index is mutable: Add appends sets to a delta segment beside the CSR
// arena (queries merge base and delta postings), Remove tombstones set
// indices (skipped by both the prefix filter's frequency accounting and the
// posting merge), and compaction — automatic past a size threshold, or
// explicit via Compact — folds the delta and drops tombstoned sets back
// into a fresh CSR arena. Mutations are exclusive and queries concurrent
// (RWMutex); query results over a mutated index are identical to a fresh
// Build over the live sets.
package josie

import (
	"context"
	"math"
	"sort"
	"sync"

	"repro/internal/par"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// Set is one indexed column domain: the lake's extracted domain type,
// indexed as it is.
type Set = table.Domain

// Index is an inverted index over set members. The bulk of the postings
// live in a CSR arena built at Build (or the latest compaction): the base
// posting list of token id is posts[postStart[id]:postStart[id+1]], always
// sorted by ascending set index. Sets added since the last compaction keep
// their postings in the delta map instead; removed sets are tombstoned in
// dead (their base postings are skipped at query time, their delta postings
// pruned eagerly). Mutations take the write lock, queries the read lock.
type Index struct {
	mu   sync.RWMutex
	sets []Set
	dict *table.TokenDict

	// Base CSR arena: covers sets[:baseSets] as of the last Build/Compact.
	numTokens int      // dict size at build time; larger IDs have no base postings
	postStart []uint32 // len numTokens+2; postStart[0] and [1] cover the unused ID 0
	posts     []int32

	// Delta segment and tombstones (see Add, Remove, Compact).
	baseSets   int                // sets[:baseSets] have their postings in the arena
	delta      map[uint32][]int32 // token id -> set indices added since compaction (ascending)
	dead       []bool             // per set index: tombstoned by Remove
	deadCount  int
	deadBase   []int32 // per base token id: tombstoned base postings (lazy)
	deltaPosts int     // total postings across delta
	deadPosts  int     // total tombstoned postings in the base arena
}

// Automatic compaction folds the delta segment and tombstones back into the
// CSR arena once they outgrow a quarter of the base (and are non-trivially
// sized in absolute terms, so small lakes don't compact on every mutation).
const (
	autoCompactMinPosts = 256
	autoCompactFraction = 4
)

// Build constructs the inverted index over a private token dictionary,
// dropping any IDs the sets carry (they belong to another dictionary). Set
// values are assumed normalized (use tokenize.ValueSet when extracting from
// tables); interning deduplicates defensively so posting lists never
// double-count a set.
func Build(sets []Set) *Index { return BuildWithDict(table.WithoutIDs(sets), table.NewTokenDict()) }

// BuildWithDict constructs the inverted index over dict, which every ID the
// sets carry must come from. Sharing one dictionary across indexes — as lake
// preprocessing does — makes query-side token lookups agree lake-wide. A set
// with IDs is indexed under them as it is (they must be deduplicated, as lake
// extraction's are); a set without IDs is interned here.
//
// Interning runs one worker per set; the CSR fill afterwards is a cheap
// integer counting pass. Posting lists are filled in set order, so the
// index is identical to a sequential build regardless of scheduling.
func BuildWithDict(sets []Set, dict *table.TokenDict) *Index {
	ix := &Index{
		sets: append([]Set(nil), sets...),
		dict: dict,
		dead: make([]bool, len(sets)),
	}
	par.For(len(ix.sets), func(i int) {
		if s := &ix.sets[i]; s.IDs == nil {
			s.IDs = internDedup(dict, s.Values)
		}
	})
	ix.fillCSR()
	return ix
}

// fillCSR rebuilds the base arena over every non-tombstoned set: count token
// frequencies, prefix-sum into offsets, and fill in set order so every
// posting list stays sorted by set index. Callers must hold the write lock
// (or own the index exclusively, as Build does) and must have cleared the
// tombstones and delta of any prior state.
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
	ix.baseSets = len(ix.sets)
}

// Add appends sets to the index without rebuilding the CSR arena: each new
// set receives the next set index and its postings land in the delta
// segment, which queries merge with the base arena (delta set indices are
// all larger than base indices, so merged posting lists stay sorted).
// Sets are interned as BuildWithDict interns them. Once the delta
// outgrows the auto-compaction threshold it is folded into a fresh arena.
// Add is exclusive with queries and other mutations.
func (ix *Index) Add(sets []Set) {
	if len(sets) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, s := range sets {
		si := len(ix.sets)
		if si >= math.MaxInt32 {
			panic("josie: index full: more than ~2B sets (int32 set-index space exhausted)")
		}
		if s.IDs == nil {
			s.IDs = internDedup(ix.dict, s.Values)
		}
		ix.sets = append(ix.sets, s)
		ix.dead = append(ix.dead, false)
		if ix.delta == nil {
			ix.delta = make(map[uint32][]int32)
		}
		for _, id := range s.IDs {
			ix.delta[id] = append(ix.delta[id], int32(si))
		}
		ix.deltaPosts += len(s.IDs)
	}
	ix.maybeCompactLocked()
}

// Remove tombstones every set belonging to one of the named tables and
// reports how many sets died. Base postings of a tombstoned set stay in the
// arena but are skipped by queries (and subtracted from the prefix filter's
// frequency accounting); delta postings are pruned eagerly. Removing a
// table with no indexed sets is a no-op. Remove is exclusive with queries
// and other mutations.
func (ix *Index) Remove(tables []string) int {
	if len(tables) == 0 {
		return 0
	}
	doomed := make(map[string]bool, len(tables))
	for _, t := range tables {
		doomed[t] = true
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	removed := 0
	for i := range ix.sets {
		if ix.dead[i] || !doomed[ix.sets[i].Table] {
			continue
		}
		ix.dead[i] = true
		ix.deadCount++
		removed++
		if i < ix.baseSets {
			if ix.deadBase == nil {
				ix.deadBase = make([]int32, ix.numTokens+1)
			}
			for _, id := range ix.sets[i].IDs {
				ix.deadBase[id]++
			}
			ix.deadPosts += len(ix.sets[i].IDs)
		} else {
			for _, id := range ix.sets[i].IDs {
				ix.delta[id] = dropPosting(ix.delta[id], int32(i))
				if len(ix.delta[id]) == 0 {
					delete(ix.delta, id)
				}
			}
			ix.deltaPosts -= len(ix.sets[i].IDs)
		}
	}
	if removed > 0 {
		ix.maybeCompactLocked()
	}
	return removed
}

// dropPosting removes set index si from a delta posting list in place,
// preserving order.
func dropPosting(list []int32, si int32) []int32 {
	for i, v := range list {
		if v == si {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Compact folds the delta segment and tombstones back into the CSR arena:
// live sets keep their relative order and are renumbered densely, and the
// delta and tombstone state reset to empty. Query results are unaffected —
// compaction only re-lays-out the same live postings. Compact is exclusive
// with queries and other mutations.
func (ix *Index) Compact() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.compactLocked()
}

func (ix *Index) maybeCompactLocked() {
	if pending := ix.deltaPosts + ix.deadPosts; pending > autoCompactMinPosts && pending > len(ix.posts)/autoCompactFraction {
		ix.compactLocked()
	}
}

func (ix *Index) compactLocked() {
	if ix.deadCount == 0 && ix.deltaPosts == 0 && ix.baseSets == len(ix.sets) {
		return
	}
	live := make([]Set, 0, len(ix.sets)-ix.deadCount)
	for i := range ix.sets {
		if !ix.dead[i] {
			live = append(live, ix.sets[i])
		}
	}
	ix.sets = live
	ix.dead = make([]bool, len(live))
	ix.deadCount = 0
	ix.delta = nil
	ix.deadBase = nil
	ix.deltaPosts, ix.deadPosts = 0, 0
	ix.fillCSR()
}

// internDedup interns values into dict, skipping empties and duplicates
// (first occurrence wins), preserving order.
func internDedup(dict *table.TokenDict, values []string) []uint32 {
	ids := make([]uint32, 0, len(values))
	seen := make(map[uint32]struct{}, len(values))
	for _, v := range values {
		if v == "" {
			continue
		}
		id := dict.Intern(v)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
	}
	return ids
}

// postings returns the base-arena posting list of token id (empty for
// unknown IDs and for tokens interned after the last compaction). It may
// contain tombstoned set indices; liveFreq and the query merge account for
// them.
func (ix *Index) postings(id uint32) []int32 {
	if id == 0 || int(id) > ix.numTokens {
		return nil
	}
	return ix.posts[ix.postStart[id]:ix.postStart[id+1]]
}

// liveFreq counts the live postings of token id across the base arena
// (minus tombstones) and the delta segment — exactly the frequency a fresh
// Build over the live sets would report, which keeps the query-token
// processing order (and therefore the prefix filter's admission decisions)
// identical to a from-scratch index.
func (ix *Index) liveFreq(id uint32) int {
	f := len(ix.postings(id))
	if ix.deadBase != nil && id != 0 && int(id) <= ix.numTokens {
		f -= int(ix.deadBase[id])
	}
	if ix.delta != nil {
		f += len(ix.delta[id])
	}
	return f
}

// Dict returns the token dictionary the index interns through.
func (ix *Index) Dict() *table.TokenDict { return ix.dict }

// NumSets reports how many live (non-removed) sets are indexed.
func (ix *Index) NumSets() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.sets) - ix.deadCount
}

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

// TopK returns the k sets with the largest exact overlap with the query
// (after normalization), ranked by overlap descending with deterministic
// tie-breaking by key. Sets with zero overlap are never returned. k<=0
// returns all sets with positive overlap. Query tokens are looked up, not
// interned: transient queries never grow the dictionary.
func (ix *Index) TopK(rawQuery []string, k int) []Result {
	res, _ := ix.TopKCtx(context.Background(), rawQuery, k)
	return res
}

// TopKCtx is TopK with cooperative cancellation — TopKIDsCtx over the
// normalized raw values' dictionary IDs (0 for tokens outside the
// vocabulary, which TopKIDsCtx skips).
func (ix *Index) TopKCtx(ctx context.Context, rawQuery []string, k int) ([]Result, error) {
	query := tokenize.ValueSet(rawQuery)
	ids := make([]uint32, len(query))
	for i, tok := range query {
		ids[i] = ix.dict.Lookup(tok)
	}
	return ix.TopKIDsCtx(ctx, ids, k)
}

// TopKIDs answers a query given directly as token IDs from the index's
// dictionary, deduplicated apart from the unknown-token ID 0 — a lake
// domain's cached IDs or a resolved foreign column's.
func (ix *Index) TopKIDs(ids []uint32, k int) []Result {
	res, _ := ix.TopKIDsCtx(context.Background(), ids, k)
	return res
}

// TopKIDsCtx is TopKIDs with cooperative cancellation: the posting-list
// merge checks ctx between query tokens and returns (nil, ctx.Err()) once
// the context is cancelled.
func (ix *Index) TopKIDsCtx(ctx context.Context, ids []uint32, k int) ([]Result, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ids) == 0 || len(ix.sets) == 0 {
		return nil, ctx.Err()
	}
	tokens := make([]queryToken, 0, len(ids))
	for _, id := range ids {
		if f := ix.liveFreq(id); f > 0 {
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
	anyDead := ix.deadCount > 0
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
		// The token's live postings are the base-arena list (skipping
		// tombstoned sets) followed by the delta segment's (all live, and
		// all with larger set indices, so the merge stays ascending).
		base := ix.postings(qt.id)
		var deltaList []int32
		if ix.delta != nil {
			deltaList = ix.delta[qt.id]
		}
		for seg := 0; seg < 2; seg++ {
			list := base
			if seg == 1 {
				list = deltaList
			}
			for _, si := range list {
				if seg == 0 && anyDead && ix.dead[si] {
					continue
				}
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

package lake

import (
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/kb"
	"repro/internal/table"
)

// Epoch is the seqlock-style mutation counter every catalog shape keeps:
// odd while an answer-changing mutation (Add, Remove) is applying its
// per-index deltas, even when the catalog is settled.
// Multi-index readers sample it before and after a run to detect a torn
// read — see Lake.Epoch and discovery.RunAll. It is advisory: mutations
// never block on it.
//
// Catalog constructors seed it (see seed), so equal samples mean equal
// contents across process restarts too — the property serve's answer
// cache keys on.
type Epoch struct{ n atomic.Uint64 }

// seed starts the counter at a random even value below 2^62. A counter
// starting at 0 in every process would repeat: persist.Open replays the
// WAL since the last snapshot through Add/Remove, so a restarted shard
// climbs back through values it already reported, and any mutation that
// did not pass the coordinator (or a shard swapped for an older store)
// lands it on an old value holding different contents. A random base puts
// each incarnation in its own stretch of the counter space; below 2^62
// stays far below the coordinator's down-shard sentinel.
func (e *Epoch) seed() { e.n.Store(rand.Uint64() >> 2 &^ 1) }

// Begin marks the start of a mutation (the counter goes odd). Callers must
// have finished all validation first: a rejected batch never perturbs the
// epoch.
func (e *Epoch) Begin() { e.n.Add(1) }

// End marks the end of a mutation (the counter goes even again).
func (e *Epoch) End() { e.n.Add(1) }

// Load samples the counter.
func (e *Epoch) Load() uint64 { return e.n.Load() }

// kbState is the shared state of any catalog: the knowledge base the
// integration and analysis stages read, and the value dictionary only the
// benchmark reads (empty on a Lake, nil on a composite). Both are set once,
// at construction: the catalog compiles its KB then, which freezes it (see
// kb.KB), so readers need no lock.
type kbState struct {
	knowledge *kb.KB
	dict      *table.Dict
}

// Knowledge returns the (possibly merged) knowledge base the catalog was
// annotated with. It is frozen: mutating it panics.
func (s *kbState) Knowledge() *kb.KB { return s.knowledge }

// Dict returns the catalog-level value dictionary. A Lake's starts empty
// and no shipped code reads or writes it: New and Add intern no cells. It
// stays only because the benchmark module calls Dict (and may hand it to
// the FD closure); the benchmark-only change that drops those calls
// deletes it. Composites (Sharded, the cluster coordinator) keep no
// dictionary and return nil; see SHARDING.md.
func (s *kbState) Dict() *table.Dict { return s.dict }

// prepareKnowledge resolves Options into the KB a build annotates with:
// the curated KB, merged with a KB synthesized from the tables when asked,
// and never nil.
func prepareKnowledge(tables []*table.Table, opts Options) *kb.KB {
	knowledge := opts.Knowledge
	if opts.SynthesizeKB {
		syn := kb.Synthesize(tables, kb.SynthesizeOptions{})
		if knowledge != nil {
			knowledge = knowledge.Merge(syn)
		} else {
			knowledge = syn
		}
	}
	if knowledge == nil {
		knowledge = kb.New()
	}
	return knowledge
}

// Composite is the state a multi-shard catalog keeps above its shards,
// whatever the shards are — Sharded's in-process lakes or the cluster
// coordinator's remote processes: the routing rule, the composite seqlock
// counter over routed mutations, and the composite-level Knowledge the
// cross-shard stages (integration matching, entity resolution) read. Its
// Dict is nil. Catalogs embed it.
type Composite struct {
	kbState
	// Mutations is the composite seqlock counter. The embedding catalog's
	// own Add/Remove bracket each routed mutation with Begin/End once
	// validation has passed; nothing else may tick it.
	Mutations Epoch
	n         int
}

// NewComposite builds the composite core of an n-shard catalog over
// knowledge (nil means an empty KB). It compiles, and so freezes, the KB:
// built before the shards, it fixes the one *Compiled every shard shares.
func NewComposite(n int, knowledge *kb.KB) *Composite {
	if knowledge == nil {
		knowledge = kb.New()
	}
	c := &Composite{n: n}
	c.Mutations.seed()
	c.knowledge = knowledge
	knowledge.Compiled()
	return c
}

// NumShards reports the shard count, fixed for the catalog's lifetime.
func (c *Composite) NumShards() int { return c.n }

// ShardFor reports which shard the named table routes to — the same
// unkeyed ShardIndex rule every deployment shape uses.
func (c *Composite) ShardFor(name string) int { return ShardIndex(name, c.n) }

// Epoch is the composite seqlock epoch — see Lake.Epoch for the protocol.
// It covers mutations routed through the composite (the only supported
// kind); per-shard epochs additionally tick underneath it.
func (c *Composite) Epoch() uint64 { return c.Mutations.Load() }

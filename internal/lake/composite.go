package lake

import (
	"math/rand/v2"

	"repro/internal/kb"
	"repro/internal/table"
)

// RandomEpoch is where every catalog starts its epoch elements: a random
// even value below 2^62, far below the coordinator's down-shard sentinel. A
// counter starting at 0 in every process would repeat: persist.Open
// replays the WAL since the last snapshot through Add/Remove, so a
// restarted shard climbs back through values it already reported, and any
// mutation that did not pass the coordinator (or a shard swapped for an
// older store) lands it on an old value holding different contents. A
// random base puts each incarnation in its own stretch of the counter
// space, so equal samples mean equal contents across process restarts
// too — the property serve's answer cache keys on.
func RandomEpoch() uint64 { return rand.Uint64() >> 2 &^ 1 }

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

// Composite is the state a multi-shard catalog keeps above its shards,
// whatever the shards are — Sharded's in-process lakes or the cluster
// coordinator's remote processes: the routing rule and the composite-level
// Knowledge the cross-shard stages (integration matching, entity
// resolution) read. Its Dict is nil. Catalogs embed it.
type Composite struct {
	kbState
	n int
}

// NewComposite builds the composite core of an n-shard catalog over
// knowledge (nil means an empty KB). It compiles, and so freezes, the KB:
// built before the shards, it fixes the one *Compiled every shard shares.
func NewComposite(n int, knowledge *kb.KB) *Composite {
	if knowledge == nil {
		knowledge = kb.New()
	}
	c := &Composite{n: n}
	c.knowledge = knowledge
	knowledge.Compiled()
	return c
}

// NumShards reports the shard count, fixed for the catalog's lifetime.
func (c *Composite) NumShards() int { return c.n }

// ShardFor reports which shard the named table routes to — the same
// unkeyed ShardIndex rule every deployment shape uses.
func (c *Composite) ShardFor(name string) int { return ShardIndex(name, c.n) }

package lru

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func always(int) bool { return true }
func never(int) bool  { return false }

// checkAccounting requires the cache's byte total to be the sum of its
// entries' sizes and of the per-tag gauges, and to fit its limit.
func checkAccounting(t *testing.T, c *Cache[string, int]) {
	t.Helper()
	var entries, tags int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		entries += el.Value.(*entry[string, int]).size
	}
	for i := range c.tags {
		tags += c.tags[i].Bytes
	}
	if c.bytes != entries || c.bytes != tags || c.bytes > c.max || len(c.entries) != c.order.Len() {
		t.Fatalf("bytes %d, entries hold %d, tag gauges %d, limit %d; %d map entries, %d list entries", c.bytes, entries, tags, c.max, len(c.entries), c.order.Len())
	}
}

// TestByteLimit stores more equal-sized values than fit and requires the
// oldest to go, each eviction counted on its own tag.
func TestByteLimit(t *testing.T) {
	const size = 10
	c := New[string, int](3*size+size/2, 2)
	for i := range 5 {
		c.Put(i%2, fmt.Sprintf("k%d", i), i, size)
		checkAccounting(t, c)
	}
	if c.bytes != 3*size {
		t.Fatalf("cache holds %d bytes, want three values of %d", c.bytes, size)
	}
	for i, want := range []bool{false, false, true, true, true} {
		if _, got := c.Get(i%2, fmt.Sprintf("k%d", i), always); got != want {
			t.Fatalf("k%d cached: %v, want %v", i, got, want)
		}
	}
	if e0, e1 := c.Stats(0).Evictions, c.Stats(1).Evictions; e0 != 1 || e1 != 1 {
		t.Fatalf("evictions per tag = %d, %d; want k0's on tag 0 and k1's on tag 1", e0, e1)
	}
}

// TestLRUOrder requires a hit to protect its entry: the least recently used
// entry is evicted, not the oldest stored.
func TestLRUOrder(t *testing.T) {
	c := New[string, int](3, 1)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(0, k, i, 1)
	}
	if _, ok := c.Get(0, "a", always); !ok {
		t.Fatal("a not cached")
	}
	c.Put(0, "d", 3, 1)
	checkAccounting(t, c)
	if _, ok := c.Get(0, "b", always); ok {
		t.Fatal("b, the least recently used entry, survived the eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(0, k, always); !ok {
			t.Fatalf("%s was evicted instead of b", k)
		}
	}
}

// TestReplaceAccountedOnce stores one key twice with different sizes: the
// cache holds one entry, counted once, and serves the second value.
func TestReplaceAccountedOnce(t *testing.T) {
	c := New[string, int](100, 1)
	c.Put(0, "a", 1, 3)
	c.Put(0, "a", 2, 30)
	checkAccounting(t, c)
	if c.bytes != 30 || len(c.entries) != 1 {
		t.Fatalf("cache holds %d bytes in %d entries, want 30 in one", c.bytes, len(c.entries))
	}
	if v, _ := c.Get(0, "a", always); v != 2 {
		t.Fatalf("served %d, want the replacing value 2", v)
	}
	if s := c.Stats(0); s.Stores != 2 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want 2 stores and no eviction", s)
	}
}

// TestSkipsOversized requires a value larger than the whole limit to be
// left out rather than evicting everything else.
func TestSkipsOversized(t *testing.T) {
	c := New[string, int](4, 1)
	c.Put(0, "small", 1, 2)
	c.Put(0, "big", 2, 5)
	checkAccounting(t, c)
	if _, ok := c.Get(0, "big", always); ok {
		t.Fatal("an oversized value was cached")
	}
	if _, ok := c.Get(0, "small", always); !ok {
		t.Fatal("an oversized value displaced what fits")
	}
	if s := c.Stats(0); s.Evictions != 0 || s.Stores != 1 {
		t.Fatalf("stats = %+v: skipping an oversized value evicted or counted a store", s)
	}
}

// TestStaleDropsEntry requires a Get that fresh rejects to count stale,
// serve nothing and release the entry's bytes.
func TestStaleDropsEntry(t *testing.T) {
	c := New[string, int](100, 2)
	c.Put(1, "a", 1, 5)
	if _, ok := c.Get(1, "a", never); ok {
		t.Fatal("served an entry fresh rejected")
	}
	checkAccounting(t, c)
	if c.bytes != 0 || c.Stats(1).Stale != 1 {
		t.Fatalf("after a stale lookup: %d bytes, %d stale; want 0 and 1", c.bytes, c.Stats(1).Stale)
	}
	if _, ok := c.Get(1, "a", always); ok || c.Stats(1).Misses != 1 {
		t.Fatal("the stale entry was kept")
	}
}

// TestFreshRunsUnlocked lets fresh use the cache, as a slow check may while
// other requests store: it replaces the entry it is judging. The verdict
// still decides the Get, but the replacement is neither dropped for a stale
// verdict nor displaced by a hit's reordering.
func TestFreshRunsUnlocked(t *testing.T) {
	c := New[string, int](100, 1)
	c.Put(0, "a", 1, 5)
	c.Put(0, "b", 2, 5)
	if _, ok := c.Get(0, "a", func(int) bool { c.Put(0, "a", 3, 7); return false }); ok {
		t.Fatal("served an entry fresh rejected")
	}
	checkAccounting(t, c)
	if v, ok := c.Get(0, "a", always); !ok || v != 3 {
		t.Fatalf("Get(a) = %d, %v after a stale verdict on the entry it replaced; want the replacement 3", v, ok)
	}
	if v, ok := c.Get(0, "b", func(int) bool { c.Put(0, "b", 4, 5); return true }); !ok || v != 2 {
		t.Fatalf("Get(b) = %d, %v; want the value fresh accepted, 2", v, ok)
	}
	checkAccounting(t, c)
	if s := c.Stats(0); s.Hits != 2 || s.Stale != 1 || s.Stores != 4 || s.Bytes != 12 {
		t.Fatalf("stats = %+v; want 2 hits, 1 stale, 4 stores, 12 bytes", s)
	}
}

// TestConcurrentGetPutStats races Gets, Puts and Stats over a few keys;
// run under -race. The accounting must hold once they finish.
func TestConcurrentGetPutStats(t *testing.T) {
	c := New[string, int](20, 2)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				k := fmt.Sprintf("k%d", (i*7+w)%9)
				switch i % 4 {
				case 0:
					c.Put(w%2, k, i, int64(i%6))
				case 1:
					c.Get(w%2, k, always)
				case 2:
					c.Get(w%2, k, func(v int) bool { return v%3 != 0 })
				default:
					_ = c.Stats(w % 2)
				}
			}
		}()
	}
	wg.Wait()
	checkAccounting(t, c)
	var gets uint64
	for tag := range 2 {
		s := c.Stats(tag)
		gets += s.Hits + s.Misses + s.Stale
	}
	if gets != 4*1000 {
		t.Fatalf("%d Gets counted, want 4000", gets)
	}
}

// ref is one entry of FuzzCache's reference model.
type ref struct {
	key    string
	tag, v int
	size   int64
}

// FuzzCache drives a small cache — 8 keys, 2 tags, a 10-byte limit — with a
// byte-coded sequence of Put / Get-fresh / Get-stale and checks it against a
// reference model held as a slice in recency order (least recent first).
func FuzzCache(f *testing.F) {
	f.Add([]byte{0, 3, 3, 5, 6, 4, 9, 2, 1, 0, 12, 9, 15, 1, 2, 0})
	f.Add([]byte{0, 11, 3, 1, 6, 10, 1, 0, 4, 0, 7, 0})
	f.Add([]byte{0, 12, 3, 12, 1, 0, 6, 8, 4, 0, 9, 10}) // evicts after a hit
	f.Fuzz(checkModel)
}

// checkModel runs one FuzzCache input, two bytes per operation. Inputs are
// cut at 256 operations, which keeps each run and its minimization short.
func checkModel(t *testing.T, ops []byte) {
	const limit, keys, tags = 10, 8, 2
	ops = ops[:min(len(ops), 512)]
	c := New[string, int](limit, tags)
	var model []ref
	var want [tags]Stats
	var gets [tags]uint64
	// drop removes model[j], releasing its bytes, and returns it.
	drop := func(j int) ref {
		r := model[j]
		want[r.tag].Bytes -= r.size
		model = slices.Delete(model, j, j+1)
		return r
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		key := fmt.Sprintf("k%d", op/3%keys)
		tag := int(arg) % tags
		j := slices.IndexFunc(model, func(r ref) bool { return r.key == key })
		switch op % 3 {
		case 0: // Put
			size := int64(arg / tags % (limit + 2))
			c.Put(tag, key, i, size)
			if size > limit {
				break
			}
			if j >= 0 {
				drop(j)
			}
			model = append(model, ref{key, tag, i, size})
			want[tag].Stores++
			want[tag].Bytes += size
			var held int64
			for _, r := range model {
				held += r.size
			}
			for held > limit {
				r := drop(0)
				want[r.tag].Evictions++
				held -= r.size
			}
		default: // Get: fresh when op%3 == 1, stale when op%3 == 2
			fresh := op%3 == 1
			gets[tag]++
			v, ok := c.Get(tag, key, func(int) bool { return fresh })
			if ok != (j >= 0 && fresh) {
				t.Fatalf("op %d: Get(%s) hit %v, the model says %v", i, key, ok, j >= 0 && fresh)
			}
			switch {
			case j < 0:
				want[tag].Misses++
			case !fresh:
				want[tag].Stale++
				drop(j)
			default:
				want[tag].Hits++
				if v != model[j].v {
					t.Fatalf("op %d: Get(%s) = %d, want the last value Put, %d", i, key, v, model[j].v)
				}
				r := drop(j)
				want[r.tag].Bytes += r.size
				model = append(model, r)
			}
		}
		checkAccounting(t, c)
		var got, wantOrder []string
		for el := c.order.Front(); el != nil; el = el.Next() {
			got = append(got, el.Value.(*entry[string, int]).key)
		}
		for _, r := range model {
			wantOrder = append(wantOrder, r.key)
		}
		if !slices.Equal(got, wantOrder) {
			t.Fatalf("op %d: recency order %v, want %v", i, got, wantOrder)
		}
		for tag := range tags {
			s := c.Stats(tag)
			if s != want[tag] || s.Hits+s.Misses+s.Stale != gets[tag] {
				t.Fatalf("op %d: tag %d stats %+v, want %+v over %d Gets", i, tag, s, want[tag], gets[tag])
			}
		}
	}
}

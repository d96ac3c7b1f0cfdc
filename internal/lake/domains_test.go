package lake

import (
	"context"
	"testing"
)

// TestIndexesHoldLakeDomains pins the one-domain contract: JOSIE and the LSH
// Ensemble index the lake's extracted domains as they are, on a built lake
// and again after Add. Every Domains() entry, used as its own query, comes
// back from both indexes as a hit on its own column with the same key and
// with IDs that share DomainFor's backing array — no index re-interned or
// copied it. Lake domains carry no fingerprint copy: signing reads the token
// dictionary's cache.
func TestIndexesHoldLakeDomains(t *testing.T) {
	l := demoLake(t)
	checkIndexesHoldLakeDomains(t, l, "built")
	if err := l.Add(cityTable("T9", "Berlin", "Tokyo", "Lyon")); err != nil {
		t.Fatal(err)
	}
	checkIndexesHoldLakeDomains(t, l, "after Add")
}

// domainHit is what one index reports about a column.
type domainHit struct {
	key, table string
	column     int
	ids        []uint32
}

func checkIndexesHoldLakeDomains(t *testing.T, l *Lake, stage string) {
	t.Helper()
	ctx := context.Background()
	domains := l.Domains()
	if len(domains) == 0 {
		t.Fatalf("%s: no domains", stage)
	}
	for i := range domains {
		own := l.DomainFor(domains[i].Table, domains[i].Column)
		if own == nil || own.Key() != domains[i].Key() {
			t.Fatalf("%s: DomainFor(%s) = %v", stage, domains[i].Key(), own)
		}
		if own.Fingerprints != nil {
			t.Errorf("%s: lake domain %s carries %d fingerprints; signing must read the token dictionary", stage, own.Key(), len(own.Fingerprints))
		}
		josieHits, err := l.Josie().TopKIDsCtx(ctx, own.IDs, 0)
		if err != nil {
			t.Fatal(err)
		}
		var fromJosie []domainHit
		for _, h := range josieHits {
			fromJosie = append(fromJosie, domainHit{h.Set.Key(), h.Set.Table, h.Set.Column, h.Set.IDs})
		}
		lshHits, err := l.Join().QueryDomainCtx(ctx, own, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		var fromLSH []domainHit
		for _, h := range lshHits {
			fromLSH = append(fromLSH, domainHit{h.Domain.Key(), h.Domain.Table, h.Domain.Column, h.Domain.IDs})
		}
		for _, index := range []struct {
			name string
			hits []domainHit
		}{{"josie", fromJosie}, {"lsh", fromLSH}} {
			found := false
			for _, h := range index.hits {
				if h.table != own.Table || h.column != own.Column {
					continue
				}
				found = true
				if h.key != own.Key() {
					t.Errorf("%s: %s self-query hit has key %q, want %q", stage, index.name, h.key, own.Key())
				}
				if len(h.ids) != len(own.IDs) || &h.ids[0] != &own.IDs[0] {
					t.Errorf("%s: %s holds a copy of %s's IDs, not the lake's", stage, index.name, own.Key())
				}
			}
			if !found {
				t.Errorf("%s: %s self-query of %s did not return its own column", stage, index.name, own.Key())
			}
		}
	}
}

package discovery

import (
	"fmt"
	"sort"
	"sync"
)

// Registry holds named discoverers; DIALITE's extensibility story (§3.2)
// is users registering their own next to the built-ins.
type Registry struct {
	mu sync.RWMutex
	ds map[string]Discoverer
}

// NewRegistry returns a registry with the built-ins registered:
// santos-union, lsh-join, josie-join, syntactic-union.
func NewRegistry() *Registry {
	r := &Registry{ds: make(map[string]Discoverer)}
	for _, d := range []Discoverer{SantosUnion{}, LSHJoin{}, JosieJoin{}, SyntacticUnion{}} {
		if err := r.Register(d); err != nil {
			panic(err) // unreachable: built-in names are distinct
		}
	}
	return r
}

// Register adds a discoverer; duplicate or empty names, and a
// SimilarityFunc without Sim, are errors.
func (r *Registry) Register(d Discoverer) error {
	name := d.Name()
	if name == "" {
		return fmt.Errorf("discovery: discoverer with empty name")
	}
	var noSim bool
	switch s := d.(type) {
	case SimilarityFunc:
		noSim = s.Sim == nil
	case *SimilarityFunc:
		noSim = s.Sim == nil
	}
	if noSim {
		// Every run it joined would fail, by the server's fault.
		return fmt.Errorf("discovery: %q has no similarity function", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.ds[name]; exists {
		return fmt.Errorf("discovery: discoverer %q already registered", name)
	}
	r.ds[name] = d
	return nil
}

// Get returns the named discoverer.
func (r *Registry) Get(name string) (Discoverer, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.ds[name]
	return d, ok
}

// Names lists registered discoverer names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.ds))
	for n := range r.ds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

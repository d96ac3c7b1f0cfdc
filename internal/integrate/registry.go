package integrate

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/fd"
)

// Func adapts a plain function into an Operator, the hook behind the
// paper's Fig. 6: a user implements an integration method as code and
// registers it alongside the built-ins.
type Func struct {
	// OpName is the registry key.
	OpName string
	// F integrates the aligned sets; it receives the request context and
	// should poll it in long loops (built-in operators' Run methods have
	// compatible signatures, so F: integrate.FullOuterJoin{}.Run works).
	F func(ctx context.Context, schema []string, sets []AlignedSet) ([]Tuple, error)
}

// Tuple aliases fd.Tuple so user-defined operators only import this
// package.
type Tuple = fd.Tuple

// Name implements Operator.
func (f Func) Name() string { return f.OpName }

// Run implements Operator.
func (f Func) Run(ctx context.Context, schema []string, sets []AlignedSet) ([]Tuple, error) {
	if f.F == nil {
		return nil, fmt.Errorf("integrate: operator %q has no function", f.OpName)
	}
	return f.F(ctx, schema, sets)
}

// Registry holds named integration operators. The zero value is unusable;
// use NewRegistry, which pre-registers the built-ins.
type Registry struct {
	mu  sync.RWMutex
	ops map[string]Operator
}

// NewRegistry returns a registry with the built-in operators registered:
// alite-fd (default), outer-join, inner-join, union.
func NewRegistry() *Registry {
	r := &Registry{ops: make(map[string]Operator)}
	for _, op := range []Operator{ALITEFD{}, FullOuterJoin{}, InnerJoin{}, Union{}} {
		if err := r.Register(op); err != nil {
			panic(err) // unreachable: built-in names are distinct
		}
	}
	return r
}

// Register adds an operator; duplicate or empty names, and a Func without
// F, are errors.
func (r *Registry) Register(op Operator) error {
	name := op.Name()
	if name == "" {
		return fmt.Errorf("integrate: operator with empty name")
	}
	var noFunc bool
	switch f := op.(type) {
	case Func:
		noFunc = f.F == nil
	case *Func:
		noFunc = f.F == nil
	}
	if noFunc {
		// Every request that named it would fail, by the server's fault.
		return fmt.Errorf("integrate: operator %q has no function", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.ops[name]; exists {
		return fmt.Errorf("integrate: operator %q already registered", name)
	}
	r.ops[name] = op
	return nil
}

// Get returns the named operator.
func (r *Registry) Get(name string) (Operator, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	op, ok := r.ops[name]
	return op, ok
}

// Names lists registered operator names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.ops))
	for n := range r.ops {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

package logic

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"kpa/internal/system"
)

// PropTable is a proposition table: the primitive propositions of a
// system, each name mapped to its fact and to the fact's dense extension
// over the system's point index. The set of names is fixed at
// construction. Each extension is built on first use — sharded under the
// building caller's parallelism budget and polling its cancel hook — and
// published only once the build has finished, so every later reader gets
// the same complete set and the fact is scanned once per table.
//
// A PropTable is safe for concurrent use, provided its facts are (pure
// functions of the point qualify). Extensions depend only on the immutable
// system and facts, so one table is meant to be shared: the service keeps
// one per loaded system, and every evaluator of every assignment pool on
// it reads the same table (NewSharedEvaluator).
type PropTable struct {
	sys   *system.System
	facts map[string]system.Fact
	// exts[name] holds the name's extension once built; nil is unbuilt.
	// The map itself is read-only after construction.
	exts map[string]*atomic.Pointer[system.DenseSet]

	mu sync.Mutex
	// building[name] is closed when the build of name's extension that is
	// in flight ends; absent when none is.
	building map[string]chan struct{} // guarded by mu
}

// NewPropTable builds an empty proposition table over the system. The
// props map is copied; no extension is built yet.
func NewPropTable(sys *system.System, props map[string]system.Fact) *PropTable {
	t := &PropTable{
		sys:      sys,
		facts:    make(map[string]system.Fact, len(props)),
		exts:     make(map[string]*atomic.Pointer[system.DenseSet], len(props)),
		building: make(map[string]chan struct{}),
	}
	for name, fact := range props {
		t.facts[name] = fact
		t.exts[name] = new(atomic.Pointer[system.DenseSet])
	}
	return t
}

// Names returns the table's proposition names, sorted.
func (t *PropTable) Names() []string {
	names := make([]string, 0, len(t.facts))
	for name := range t.facts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ExtensionIfBuilt returns the extension of the named proposition if it
// has been built, and nil otherwise — a peek that never triggers the
// build. The returned set is shared and must not be modified.
func (t *PropTable) ExtensionIfBuilt(name string) *system.DenseSet {
	if slot, ok := t.exts[name]; ok {
		return slot.Load()
	}
	return nil
}

// with returns a copy of the table in which name denotes fact. The copy
// keeps the published extensions of every other name and shares nothing
// mutable with t, so defining a proposition on one evaluator never leaks
// into a table other evaluators read.
func (t *PropTable) with(name string, fact system.Fact) *PropTable {
	out := NewPropTable(t.sys, t.facts)
	out.facts[name] = fact
	out.exts[name] = new(atomic.Pointer[system.DenseSet])
	for n, slot := range t.exts {
		if n != name {
			out.exts[n].Store(slot.Load())
		}
	}
	return out
}

// extension returns the dense extension of the named proposition, building
// it on first use over up to workers goroutines. stop, when non-nil, is
// polled every cancelStride points; a stopped build returns ok == false
// and publishes nothing. One build per name runs at a time: a caller that
// finds one in flight waits for it, and builds itself only if that build
// published nothing.
func (t *PropTable) extension(name string, workers int, stop func() bool) (ext *system.DenseSet, ok bool, err error) {
	slot, known := t.exts[name]
	if !known {
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownProp, name)
	}
	for {
		if ext := slot.Load(); ext != nil {
			return ext, true, nil
		}
		t.mu.Lock()
		wait, inFlight := t.building[name]
		if !inFlight && slot.Load() == nil {
			done := make(chan struct{})
			t.building[name] = done
			t.mu.Unlock()
			ext := t.build(name, max(workers, 1), stop, done)
			return ext, ext != nil, nil
		}
		t.mu.Unlock()
		if inFlight {
			<-wait
		}
	}
}

// build scans name's fact over every point and publishes the extension
// unless stop ended the scan, then ends the build in flight, waking its
// waiters, whether or not it published. It returns nil when stopped.
// Shards are 64-aligned, so each owns its result words.
func (t *PropTable) build(name string, workers int, stop func() bool, done chan struct{}) *system.DenseSet {
	defer func() {
		t.mu.Lock()
		delete(t.building, name)
		t.mu.Unlock()
		close(done)
	}()
	fact := t.facts[name]
	idx := t.sys.Index()
	out := idx.NewDense()
	halted := make([]bool, workers)
	system.ParRange(idx.NumPoints(), 64, workers, func(shard, lo, hi int) {
		for id := lo; id < hi; id++ {
			if stop != nil && id&(cancelStride-1) == 0 && id > lo && stop() {
				halted[shard] = true
				return
			}
			if fact.Holds(idx.PointAt(id)) {
				out.Add(id)
			}
		}
	})
	if slices.Contains(halted, true) {
		return nil
	}
	t.exts[name].Store(out)
	return out
}

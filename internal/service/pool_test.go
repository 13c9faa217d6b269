package service

import (
	"sync"
	"sync/atomic"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/core"
	"kpa/internal/logic"
	"kpa/internal/system"
)

// countingAssignment wraps a keyed sample assignment and counts its Sample
// calls per agent. The dense space-table build samples each distinct space
// once, so the counts tell how many times each agent's table was built.
type countingAssignment struct {
	core.KeyedAssignment
	calls []atomic.Int64
}

func (c *countingAssignment) Sample(i system.AgentID, p system.Point) system.PointSet {
	c.calls[i].Add(1)
	return c.KeyedAssignment.Sample(i, p)
}

// TestPoolSharesSpaceTables checks out many workers of one pool at once and
// has each evaluate a Pr formula over every agent: the workers share the
// pool's ProbAssignment, so each agent's space table is built exactly once.
func TestPoolSharesSpaceTables(t *testing.T) {
	sys := canon.AsyncCoins(6)
	props := map[string]system.Fact{"lastHeads": canon.LastTossHeads()}
	ca := &countingAssignment{
		KeyedAssignment: core.Post(sys).(core.KeyedAssignment),
		calls:           make([]atomic.Int64, sys.NumAgents()),
	}
	p := newEvalPool(sys, ca, logic.NewPropTable(sys, props), 1<<20, 4, newEngine(2))

	const checkouts = 16
	workers := make([]*worker, checkouts)
	for k := range workers {
		workers[k] = p.get()
	}
	var wg sync.WaitGroup
	errs := make(chan error, checkouts)
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer p.put(w)
			f, err := w.formula("E{1,2}^1/2 lastHeads")
			if err == nil {
				_, err = w.eval.DenseExtension(f)
			}
			if err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := p.stats(); st.Created != checkouts {
		t.Fatalf("%d workers created, want %d concurrent checkouts", st.Created, checkouts)
	}
	for _, i := range []system.AgentID{0, 1} {
		tab := p.prob.TableIfBuilt(i)
		if tab == nil {
			t.Fatalf("p%d: no table published", i+1)
		}
		if n := ca.calls[i].Load(); n != int64(tab.NumSpaces()) {
			t.Errorf("p%d: %d Sample calls for a %d-space table: built more than once", i+1, n, tab.NumSpaces())
		}
	}
}

// TestSessionSharesPropTable checks out 16 workers at once, half from the
// session's post pool and half from its prior pool, and has each evaluate
// formulas over one proposition, returning with a memo cap so small that
// every put resets the worker: the proposition is scanned once per session
// in all, since its extension lives in the session's table, not in the
// workers' memos.
func TestSessionSharesPropTable(t *testing.T) {
	sys := canon.AsyncCoins(6)
	var calls atomic.Int64
	heads := canon.LastTossHeads()
	counting := system.NewFact("lastHeads", func(p system.Point) bool {
		calls.Add(1)
		return heads.Holds(p)
	})
	s := &session{
		sys:   sys,
		props: logic.NewPropTable(sys, map[string]system.Fact{"lastHeads": counting}),
		pools: make(map[string]*evalPool),
	}
	cfg := Config{MemoCap: 1, MaxIdle: 4}
	eng := newEngine(2)
	var pools []*evalPool
	for _, name := range []string{"post", "prior"} {
		p, err := s.pool(name, cfg, eng)
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, p)
	}

	const checkouts = 16
	workers := make([]*worker, checkouts)
	for k := range workers {
		workers[k] = pools[k%len(pools)].get()
	}
	var wg sync.WaitGroup
	errs := make(chan error, checkouts)
	for k, w := range workers {
		p := pools[k%len(pools)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.put(w)
			for _, text := range []string{"lastHeads", "K1 lastHeads", "Pr2(lastHeads) >= 1/2"} {
				f, err := w.formula(text)
				if err == nil {
					_, err = w.eval.DenseExtension(f)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := calls.Load(); n != int64(sys.NumPoints()) {
		t.Fatalf("%d Holds calls over %d points: the proposition was scanned more than once per session", n, sys.NumPoints())
	}
	for _, p := range pools {
		if st := p.stats(); st.Resets == 0 {
			t.Fatalf("%s pool: no worker was reset; the memo cap did not bite", st.Assignment)
		}
	}
}

package logic

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/system"
)

// countingFact wraps a fact and counts its Holds calls, so a test can tell
// how many times the proposition was scanned.
func countingFact(f system.Fact, calls *atomic.Int64) system.Fact {
	return system.NewFact(f.String(), func(p system.Point) bool {
		calls.Add(1)
		return f.Holds(p)
	})
}

// TestPropTableScansOnce has 16 goroutines, each with its own evaluator
// over one PropTable and a parallelism budget of 2, evaluate formulas over
// the same proposition, with a Reset between rounds: the proposition is
// scanned once in all, and every evaluator reads the extension the table
// published.
func TestPropTableScansOnce(t *testing.T) {
	defer forceParallel()()
	sys := canon.AsyncCoins(6)
	var calls atomic.Int64
	props := NewPropTable(sys, map[string]system.Fact{"lastHeads": countingFact(canon.LastTossHeads(), &calls)})
	prob := core.NewProbAssignment(sys, core.Post(sys))
	formulas := []Formula{Prop("lastHeads"), K(0, Prop("lastHeads")), MustParse("E{1,2}^1/2 lastHeads")}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := NewSharedEvaluator(props, prob)
			ev.SetParallelism(2)
			for round := 0; round < 2; round++ {
				for _, f := range formulas {
					if _, err := ev.DenseExtension(f); err != nil {
						errs <- err
						return
					}
				}
				ev.Reset()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := calls.Load(); n != int64(sys.NumPoints()) {
		t.Fatalf("%d Holds calls over %d points: the proposition was scanned more than once", n, sys.NumPoints())
	}
	want := NewEvaluator(sys, nil, map[string]system.Fact{"lastHeads": canon.LastTossHeads()})
	ext, err := want.DenseExtension(Prop("lastHeads"))
	if err != nil {
		t.Fatal(err)
	}
	if got := props.ExtensionIfBuilt("lastHeads"); got == nil || got.Key() != ext.Key() {
		t.Fatal("the table's extension differs from a private evaluator's")
	}
}

// TestCancelPropTableBuild cancels the request that is scanning a shared
// proposition: the scan publishes nothing, and the next request over the
// same table scans it and answers as a fresh evaluator does.
func TestCancelPropTableBuild(t *testing.T) {
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 2048, RunLen: 4, Buckets: 8})
	facts := map[string]system.Fact{"p": gen.ScaleFact("p", 3)}
	props := NewPropTable(sys, facts)
	f := K(0, Prop("p"))

	canceled := NewSharedEvaluator(props, nil)
	// The first two hook calls are the K and proposition nodes' entry
	// checks; the third is the scan's first stride poll.
	calls := 0
	canceled.SetCancel(func() error {
		calls++
		if calls >= 3 {
			return errCancelTest
		}
		return nil
	})
	if _, err := canceled.DenseExtension(f); !errors.Is(err, errCancelTest) {
		t.Fatalf("evaluation during a canceled scan returned %v, want the hook's error", err)
	}
	if calls != 3 {
		t.Fatalf("hook called %d times, want 3: the scan must stop at its first poll", calls)
	}
	if props.ExtensionIfBuilt("p") != nil {
		t.Fatal("a canceled scan published its extension")
	}

	got, err := NewSharedEvaluator(props, nil).DenseExtension(f)
	if err != nil {
		t.Fatal(err)
	}
	if props.ExtensionIfBuilt("p") == nil {
		t.Fatal("the next request did not publish the extension")
	}
	want, err := NewEvaluator(sys, nil, facts).DenseExtension(f)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("extension after a canceled scan differs from a fresh evaluator's")
	}
}

// TestDefinePropDoesNotLeak defines propositions on one of two evaluators
// sharing a table — replacing a built one and adding a new one — and
// checks that neither the other evaluator nor the table sees them.
func TestDefinePropDoesNotLeak(t *testing.T) {
	sys := canon.AsyncCoins(4)
	heads := canon.LastTossHeads()
	tails := system.NewFact("lastTails", func(p system.Point) bool { return !heads.Holds(p) })
	props := NewPropTable(sys, map[string]system.Fact{"lastHeads": heads})
	a, b := NewSharedEvaluator(props, nil), NewSharedEvaluator(props, nil)
	before, err := a.DenseExtension(Prop("lastHeads"))
	if err != nil {
		t.Fatal(err)
	}

	a.DefineProp("lastHeads", tails)
	a.DefineProp("extra", heads)
	redefined, err := a.DenseExtension(Prop("lastHeads"))
	if err != nil {
		t.Fatal(err)
	}
	if !redefined.Equal(before.Complement()) {
		t.Fatal("the redefined proposition does not denote its new fact")
	}
	if _, err := a.DenseExtension(Prop("extra")); err != nil {
		t.Fatalf("the added proposition: %v", err)
	}

	if got := props.ExtensionIfBuilt("lastHeads"); got != before {
		t.Fatal("DefineProp replaced the shared table's extension")
	}
	if names := props.Names(); len(names) != 1 || names[0] != "lastHeads" {
		t.Fatalf("shared table names %v after DefineProp on one evaluator", names)
	}
	got, err := b.DenseExtension(Prop("lastHeads"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(before) {
		t.Fatal("the other evaluator sees the redefined proposition")
	}
	if _, err := b.DenseExtension(Prop("extra")); !errors.Is(err, ErrUnknownProp) {
		t.Fatalf("the other evaluator resolved a proposition defined on its peer: %v", err)
	}
}

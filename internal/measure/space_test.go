package measure

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

func TestNewSpaceValidation(t *testing.T) {
	sys := canon.VardiCoin()
	t.Run("empty sample", func(t *testing.T) {
		if _, err := NewSpace(system.NewPointSet()); !errors.Is(err, ErrEmptySample) {
			t.Errorf("err = %v, want ErrEmptySample", err)
		}
	})
	t.Run("REQ1: spans trees", func(t *testing.T) {
		if _, err := NewSpace(sys.Points()); !errors.Is(err, ErrSpansTrees) {
			t.Errorf("err = %v, want ErrSpansTrees", err)
		}
	})
	t.Run("single tree ok", func(t *testing.T) {
		tree := sys.Trees()[0]
		sp, err := NewSpace(sys.PointsOfTree(tree))
		if err != nil {
			t.Fatalf("NewSpace: %v", err)
		}
		if sp.Tree() != tree {
			t.Error("Tree accessor wrong")
		}
		if !sp.BaseProb().IsOne() {
			t.Errorf("BaseProb = %s, want 1 (all runs)", sp.BaseProb())
		}
	})
}

// TestVardiConditionals reproduces Section 3's numbers: within the input=0
// tree the probability of heads is 1/2, within input=1 it is 2/3, and there
// is no single space spanning both (REQ1).
func TestVardiConditionals(t *testing.T) {
	sys := canon.VardiCoin()
	heads := canon.Heads()
	want := map[string]rat.Rat{
		"input=0": rat.Half,
		"input=1": rat.New(2, 3),
	}
	for name, w := range want {
		tree := sys.TreeByAdversary(name)
		// Sample: the time-1 points of the tree (after the toss).
		sample := system.NewPointSet(sys.PointsAtTime(tree, 1)...)
		sp := MustSpace(sample)
		got, err := sp.ProbFact(heads)
		if err != nil {
			t.Fatalf("%s: ProbFact: %v", name, err)
		}
		if !got.Equal(w) {
			t.Errorf("%s: P(heads) = %s, want %s", name, got, w)
		}
	}
}

// TestAsyncInnerOuter reproduces the headline numbers of Section 7: over
// the clockless agent p1's sample space (all post-toss points of the
// 10-coin tree), the fact "the most recent toss landed heads" is not
// measurable; its inner measure is 1/2^10 and its outer measure 1 − 1/2^10.
func TestAsyncInnerOuter(t *testing.T) {
	const n = 10
	sys := canon.AsyncCoins(n)
	tree := sys.Trees()[0]
	phi := canon.LastTossHeads()

	// p1's sample space at any post-toss point: everything p1 considers
	// possible, i.e. all points at times 1..n.
	c := system.Point{Tree: tree, Run: 0, Time: 1}
	sample := sys.KInTree(canon.P1, c)
	if got, want := sample.Len(), tree.NumRuns()*n; got != want {
		t.Fatalf("sample size = %d, want %d", got, want)
	}
	sp := MustSpace(sample)

	if sp.IsFactMeasurable(phi) {
		t.Fatal("lastHeads should not be measurable for the clockless agent")
	}
	if _, err := sp.ProbFact(phi); !errors.Is(err, ErrNotMeasurable) {
		t.Fatalf("ProbFact err = %v, want ErrNotMeasurable", err)
	}
	wantInner := rat.Pow(rat.Half, n)
	if got := sp.InnerFact(phi); !got.Equal(wantInner) {
		t.Errorf("inner measure = %s, want %s", got, wantInner)
	}
	wantOuter := rat.One.Sub(wantInner)
	if got := sp.OuterFact(phi); !got.Equal(wantOuter) {
		t.Errorf("outer measure = %s, want %s", got, wantOuter)
	}

	// The clocked agent p2's sample space at time k: the time-k points,
	// where the same fact is measurable with probability exactly 1/2.
	for k := 1; k <= n; k++ {
		s2 := MustSpace(system.NewPointSet(sys.PointsAtTime(tree, k)...))
		p, err := s2.ProbFact(phi)
		if err != nil {
			t.Fatalf("clocked space at time %d: %v", k, err)
		}
		if !p.Equal(rat.Half) {
			t.Errorf("clocked P(lastHeads) at time %d = %s, want 1/2", k, p)
		}
	}
}

func TestFiberAndMeasurability(t *testing.T) {
	sys := canon.AsyncCoins(3)
	tree := sys.Trees()[0]
	c := system.Point{Tree: tree, Run: 0, Time: 1}
	sp := MustSpace(sys.KInTree(canon.P1, c))

	// Each run's fiber has 3 points (times 1..3).
	for r := 0; r < tree.NumRuns(); r++ {
		if got := sp.Fiber(r).Len(); got != 3 {
			t.Errorf("fiber of run %d has %d points, want 3", r, got)
		}
	}
	// A full fiber is measurable; a partial one is not.
	full := sp.Fiber(0)
	if !sp.IsMeasurable(full) {
		t.Error("full fiber not measurable")
	}
	var one system.Point
	for p := range full {
		one = p
		break
	}
	partial := system.NewPointSet(one)
	if sp.IsMeasurable(partial) {
		t.Error("partial fiber measurable")
	}
	// Probability of a full fiber = run probability (base is 1).
	p, err := sp.Prob(full)
	if err != nil {
		t.Fatalf("Prob(fiber): %v", err)
	}
	if !p.Equal(rat.New(1, 8)) {
		t.Errorf("P(fiber) = %s, want 1/8", p)
	}
	// Inner/outer of the partial fiber: 0 and 1/8.
	if got := sp.Inner(partial); !got.IsZero() {
		t.Errorf("inner(partial) = %s", got)
	}
	if got := sp.Outer(partial); !got.Equal(rat.New(1, 8)) {
		t.Errorf("outer(partial) = %s", got)
	}
}

func TestConditioning(t *testing.T) {
	sys := canon.Die()
	tree := sys.Trees()[0]
	all := system.NewPointSet(sys.PointsAtTime(tree, 1)...)
	sp := MustSpace(all)
	even := canon.Even()

	// P(even) over the full space = 1/2 (Section 5's first assignment).
	if p, err := sp.ProbFact(even); err != nil || !p.Equal(rat.Half) {
		t.Fatalf("P(even) = %v, %v", p, err)
	}

	// Condition on {1,2,3}: P(even | {1,2,3}) = 1/3 (the S² assignment).
	low := all.Filter(func(p system.Point) bool {
		switch p.Env() {
		case "face=1", "face=2", "face=3":
			return true
		}
		return false
	})
	cond, err := sp.Condition(low)
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	if p, err := cond.ProbFact(even); err != nil || !p.Equal(rat.New(1, 3)) {
		t.Errorf("P(even | low half) = %v, %v; want 1/3", p, err)
	}

	// Conditioning on a non-subset or non-measurable set fails.
	if _, err := sp.Condition(sys.Points()); err == nil {
		t.Error("Condition accepted a non-subset")
	}
	async := canon.AsyncCoins(2)
	at := async.Trees()[0]
	asp := MustSpace(async.KInTree(canon.P1, system.Point{Tree: at, Run: 0, Time: 1}))
	half := asp.Sample().Filter(func(p system.Point) bool { return p.Time == 1 })
	if _, err := asp.Condition(half); err == nil {
		t.Error("Condition accepted a non-measurable subset")
	}
}

func TestExpectation(t *testing.T) {
	sys := canon.Die()
	tree := sys.Trees()[0]
	sp := MustSpace(system.NewPointSet(sys.PointsAtTime(tree, 1)...))

	// E[face value] = 7/2.
	faceVal := func(p system.Point) rat.Rat {
		switch p.Env() {
		case "face=1":
			return rat.FromInt(1)
		case "face=2":
			return rat.FromInt(2)
		case "face=3":
			return rat.FromInt(3)
		case "face=4":
			return rat.FromInt(4)
		case "face=5":
			return rat.FromInt(5)
		default:
			return rat.FromInt(6)
		}
	}
	e, err := sp.Expect(faceVal)
	if err != nil {
		t.Fatalf("Expect: %v", err)
	}
	if !e.Equal(rat.New(7, 2)) {
		t.Errorf("E[face] = %s, want 7/2", e)
	}

	// A variable that varies along a fiber is not measurable.
	async := canon.AsyncCoins(2)
	at := async.Trees()[0]
	asp := MustSpace(async.KInTree(canon.P1, system.Point{Tree: at, Run: 0, Time: 1}))
	if _, err := asp.Expect(func(p system.Point) rat.Rat { return rat.FromInt(int64(p.Time)) }); err == nil {
		t.Error("Expect accepted a fiber-varying variable")
	}
}

func TestTwoValuedExpectations(t *testing.T) {
	sys := canon.AsyncCoins(4)
	tree := sys.Trees()[0]
	sp := MustSpace(sys.KInTree(canon.P1, system.Point{Tree: tree, Run: 0, Time: 1}))
	phi := canon.LastTossHeads()
	set := sp.Sample().Filter(phi.Holds)

	// Winnings α−1 = 1 on φ, −1 on ¬φ.
	high, low := rat.One, rat.FromInt(-1)
	inner := sp.InnerExpectTwoValued(high, low, set)
	outer := sp.OuterExpectTwoValued(high, low, set)
	// Ê_* = 1·(1/16) + (−1)·(15/16) = −14/16; Ê* = +14/16.
	if want := rat.New(-7, 8); !inner.Equal(want) {
		t.Errorf("inner expectation = %s, want %s", inner, want)
	}
	if want := rat.New(7, 8); !outer.Equal(want) {
		t.Errorf("outer expectation = %s, want %s", outer, want)
	}
	if inner.Greater(outer) {
		t.Error("inner expectation exceeds outer")
	}

	// On a measurable set, the two-valued expectations agree with Expect.
	dieSys := canon.Die()
	dt := dieSys.Trees()[0]
	dsp := MustSpace(system.NewPointSet(dieSys.PointsAtTime(dt, 1)...))
	evenSet := dsp.Sample().Filter(canon.Even().Holds)
	exp, err := dsp.ExpectTwoValued(high, low, evenSet)
	if err != nil {
		t.Fatalf("ExpectTwoValued: %v", err)
	}
	if !exp.IsZero() {
		t.Errorf("E = %s, want 0 for a fair even bet", exp)
	}
	if got := dsp.InnerExpectTwoValued(high, low, evenSet); !got.Equal(exp) {
		t.Errorf("inner (%s) != exact (%s) on measurable set", got, exp)
	}
	if got := dsp.OuterExpectTwoValued(high, low, evenSet); !got.Equal(exp) {
		t.Errorf("outer (%s) != exact (%s) on measurable set", got, exp)
	}
}

// TestProposition2 mechanically re-checks Proposition 2: the induced P_ic is
// a probability space — μ(∅)=0, μ(S_ic)=1, additivity over disjoint
// measurable sets, complements measurable.
func TestProposition2(t *testing.T) {
	sys := canon.AsyncCoins(3)
	tree := sys.Trees()[0]
	sp := MustSpace(sys.KInTree(canon.P1, system.Point{Tree: tree, Run: 0, Time: 1}))

	sets := sp.MeasurableSets()
	if want := 1 << 8; len(sets) != want { // 2^8 runs
		t.Fatalf("|X_ic| = %d, want %d", len(sets), want)
	}
	empty, err := sp.Prob(system.NewPointSet())
	if err != nil || !empty.IsZero() {
		t.Errorf("μ(∅) = %v, %v", empty, err)
	}
	full, err := sp.Prob(sp.Sample())
	if err != nil || !full.IsOne() {
		t.Errorf("μ(S_ic) = %v, %v", full, err)
	}
	// Additivity and complement on a spot-checked subfamily.
	for i := 0; i < len(sets); i += 37 {
		a := sets[i]
		comp := sp.Sample().Minus(a)
		if !sp.IsMeasurable(comp) {
			t.Fatalf("complement of measurable set not measurable")
		}
		pa, err1 := sp.Prob(a)
		pc, err2 := sp.Prob(comp)
		if err1 != nil || err2 != nil {
			t.Fatalf("Prob errors: %v %v", err1, err2)
		}
		if !pa.Add(pc).IsOne() {
			t.Errorf("μ(A)+μ(Aᶜ) = %s", pa.Add(pc))
		}
		for j := 1; j < len(sets); j += 53 {
			b := sets[j]
			if !a.Intersect(b).IsEmpty() {
				continue
			}
			pb, _ := sp.Prob(b)
			pu, err := sp.Prob(a.Union(b))
			if err != nil {
				t.Fatalf("union of measurable sets not measurable: %v", err)
			}
			if !pu.Equal(pa.Add(pb)) {
				t.Errorf("additivity violated: %s != %s + %s", pu, pa, pb)
			}
		}
	}
}

func TestMeasureInnerEqualsOneMinusOuterComplement(t *testing.T) {
	sys := canon.AsyncCoins(3)
	tree := sys.Trees()[0]
	sp := MustSpace(sys.KInTree(canon.P1, system.Point{Tree: tree, Run: 0, Time: 1}))
	phi := canon.LastTossHeads()
	set := sp.Sample().Filter(phi.Holds)
	comp := sp.Sample().Minus(set)
	if !sp.Inner(set).Equal(rat.One.Sub(sp.Outer(comp))) {
		t.Errorf("μ_*(S) = %s but 1−μ*(Sᶜ) = %s",
			sp.Inner(set), rat.One.Sub(sp.Outer(comp)))
	}
}

// TestNewSpaceLinearInSample pins the fiber index to the sample: building
// the space of a one-point sample allocates as many bytes on an 8192-run
// tree as on a 64-run tree.
func TestNewSpaceLinearInSample(t *testing.T) {
	allocated := func(runs int) uint64 {
		sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 1, NumRuns: runs, RunLen: 2, Buckets: 2})
		sample := system.NewPointSet(sys.Index().PointAt(1))
		MustSpace(sample) // warm any lazily built tree state
		// Bytes per space over 1000 builds, the least of five tries: the
		// runtime's own occasional allocations only ever add bytes.
		const builds = 1000
		least := uint64(math.MaxUint64)
		for try := 0; try < 5; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for k := 0; k < builds; k++ {
				MustSpace(sample)
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/builds)
		}
		return least
	}
	small, large := allocated(64), allocated(8192)
	if small != large {
		t.Fatalf("a one-point space allocates %d bytes on a 64-run tree but %d on an 8192-run tree", small, large)
	}
}

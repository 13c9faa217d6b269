package logic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// randomFormula builds a random formula of bounded depth over the
// propositions p0..p{nprops-1} and the agents of an n-agent system, covering
// every operator of L(Φ) including the group and probabilistic-group
// operators.
func randomFormula(rng *rand.Rand, depth, nprops, nagents int) Formula {
	alphas := []rat.Rat{rat.Zero, rat.New(1, 3), rat.Half, rat.New(2, 3), rat.One}
	alpha := func() rat.Rat { return alphas[rng.Intn(len(alphas))] }
	agent := func() system.AgentID { return system.AgentID(rng.Intn(nagents)) }
	group := func() []system.AgentID {
		g := []system.AgentID{agent()}
		for i := 0; i < nagents; i++ {
			if rng.Intn(2) == 0 {
				g = append(g, system.AgentID(i))
			}
		}
		return g
	}
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return True
		case 1:
			return False
		default:
			return Prop(fmt.Sprintf("p%d", rng.Intn(nprops)))
		}
	}
	sub := func() Formula { return randomFormula(rng, depth-1, nprops, nagents) }
	switch rng.Intn(16) {
	case 0:
		return Prop(fmt.Sprintf("p%d", rng.Intn(nprops)))
	case 1:
		return Not(sub())
	case 2:
		return And(sub(), sub())
	case 3:
		return Or(sub(), sub())
	case 4:
		return Implies(sub(), sub())
	case 5:
		return Next(sub())
	case 6:
		return Until(sub(), sub())
	case 7:
		return Eventually(sub())
	case 8:
		return Always(sub())
	case 9:
		return K(agent(), sub())
	case 10:
		return PrGeq(agent(), sub(), alpha())
	case 11:
		return PrLeq(agent(), sub(), alpha())
	case 12:
		return Everyone(group(), sub())
	case 13:
		return Common(group(), sub())
	case 14:
		return EveryonePr(group(), sub(), alpha())
	default:
		return CommonPr(group(), sub(), alpha())
	}
}

// diffCase is one seeded differential case: a random system, its random
// propositions, and random formulas over them.
type diffCase struct {
	seed     int64
	sys      *system.System
	props    map[string]system.Fact
	formulas []Formula
}

// differentialCases generates n seeded cases from seeds base, base+1, ...,
// cycling through generator configurations that cover one to three agents
// and one to three trees, each case with five depth-4 formulas over three
// propositions.
func differentialCases(base int64, n int) []diffCase {
	const (
		formulasPerSys = 5
		propsPerSys    = 3
		formulaDepth   = 4
	)
	cfgs := []gen.Config{
		gen.DefaultConfig(),
		{NumAgents: 3, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: true, ObservationLevels: true},
		{NumAgents: 2, NumTrees: 3, MaxDepth: 4, MaxBranch: 2, Synchronous: true, ObservationLevels: true},
		{NumAgents: 1, NumTrees: 1, MaxDepth: 4, MaxBranch: 3, Synchronous: true, ObservationLevels: false},
	}
	out := make([]diffCase, n)
	for s := range out {
		dc := &out[s]
		dc.seed = base + int64(s)
		rng := rand.New(rand.NewSource(dc.seed))
		cfg := cfgs[s%len(cfgs)]
		dc.sys = gen.MustSystem(rng, cfg)
		dc.props = make(map[string]system.Fact, propsPerSys)
		for j := 0; j < propsPerSys; j++ {
			name := fmt.Sprintf("p%d", j)
			dc.props[name] = gen.RandomFact(rng, dc.sys, name)
		}
		for j := 0; j < formulasPerSys; j++ {
			dc.formulas = append(dc.formulas, randomFormula(rng, formulaDepth, propsPerSys, cfg.NumAgents))
		}
	}
	return out
}

// TestDifferentialDenseVsReference is the executable-specification check:
// on ~200 seeded random (system, formula) cases the dense evaluator must
// agree point-for-point with the retained naive ReferenceEvaluator.
func TestDifferentialDenseVsReference(t *testing.T) {
	for _, dc := range differentialCases(1000, 40) {
		P := core.NewProbAssignment(dc.sys, core.Post(dc.sys))
		dense := NewEvaluator(dc.sys, P, dc.props)
		naive := NewReferenceEvaluator(dc.sys, P, dc.props)

		for _, f := range dc.formulas {
			want, errN := naive.Extension(f)
			got, errD := dense.Extension(f)
			if (errN == nil) != (errD == nil) {
				t.Fatalf("seed %d formula %s: error disagreement: naive %v, dense %v", dc.seed, f, errN, errD)
			}
			if errN != nil {
				continue
			}
			if !got.Equal(want) {
				for p := range dc.sys.Points() {
					if got.Contains(p) != want.Contains(p) {
						t.Errorf("seed %d formula %s: disagreement at %v: dense %v, naive %v",
							dc.seed, f, p, got.Contains(p), want.Contains(p))
					}
				}
				t.Fatalf("seed %d formula %s: extensions differ", dc.seed, f)
			}
		}
	}
}

// TestDifferentialSharedTables repeats the ~200 differential cases with the
// dense space tables and the proposition table shared: four goroutines,
// each with its own evaluator, evaluate the case's formulas in rotated
// orders over one ProbAssignment and one PropTable, racing to build their
// tables. The PropTable is shared across both assignments of the case, as
// a service session shares it across its pools. Every goroutine's
// extensions must be byte-identical to those of a private evaluator and of
// the ReferenceEvaluator, for the keyed post assignment and for an unkeyed
// copy of it, whose tables group points by sample content.
func TestDifferentialSharedTables(t *testing.T) {
	const goroutines = 4
	for _, dc := range differentialCases(1000, 40) {
		post := core.Post(dc.sys)
		idx := dc.sys.Index()
		props := NewPropTable(dc.sys, dc.props)
		for _, sa := range []core.SampleAssignment{post, core.NewAssignment("post/unkeyed", post.Sample)} {
			// want[j] is the reference extension's bitset key, or "" when
			// the reference reports an error.
			want := make([]string, len(dc.formulas))
			naive := NewReferenceEvaluator(dc.sys, core.NewProbAssignment(dc.sys, sa), dc.props)
			private := NewEvaluator(dc.sys, core.NewProbAssignment(dc.sys, sa), dc.props)
			for j, f := range dc.formulas {
				ref, errN := naive.Extension(f)
				got, errD := private.DenseExtension(f)
				if (errN == nil) != (errD == nil) {
					t.Fatalf("seed %d %s formula %s: error disagreement: naive %v, private %v", dc.seed, sa.Name(), f, errN, errD)
				}
				if errN != nil {
					continue
				}
				want[j] = idx.DenseOf(ref).Key()
				if got.Key() != want[j] {
					t.Fatalf("seed %d %s formula %s: private extension differs from reference", dc.seed, sa.Name(), f)
				}
			}
			shared := core.NewProbAssignment(dc.sys, sa)
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					ev := NewSharedEvaluator(props, shared)
					for k := range dc.formulas {
						j := (k + g) % len(dc.formulas)
						got, err := ev.DenseExtension(dc.formulas[j])
						if (err == nil) != (want[j] != "") {
							errs <- fmt.Errorf("seed %d %s formula %s: shared evaluator error %v disagrees with reference", dc.seed, sa.Name(), dc.formulas[j], err)
							return
						}
						if err == nil && got.Key() != want[j] {
							errs <- fmt.Errorf("seed %d %s formula %s: shared extension differs from reference", dc.seed, sa.Name(), dc.formulas[j])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		}
	}
}

// TestConcurrentSharedIndex checks the sharing contract under the race
// detector: many evaluators over one system concurrently build and read the
// shared point index, cell partitions and dense space tables. Each
// goroutine owns its evaluator; the System, its Index and the
// ProbAssignment are shared.
func TestConcurrentSharedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := gen.Config{NumAgents: 3, NumTrees: 2, MaxDepth: 4, MaxBranch: 3, Synchronous: true, ObservationLevels: true}
	sys := gen.MustSystem(rng, cfg)
	props := map[string]system.Fact{"p0": gen.RandomFact(rng, sys, "p0")}
	P := core.NewProbAssignment(sys, core.Post(sys))

	formulas := []Formula{
		Common([]system.AgentID{0, 1, 2}, Prop("p0")),
		CommonPr([]system.AgentID{0, 1}, Prop("p0"), rat.Half),
		Always(Implies(Prop("p0"), K(0, Prop("p0")))),
		Until(Prop("p0"), PrGeq(2, Prop("p0"), rat.New(1, 3))),
	}

	// Reference answers, computed single-threaded.
	ref := NewEvaluator(sys, P, props)
	want := make([]*system.DenseSet, len(formulas))
	for i, f := range formulas {
		ext, err := ref.DenseExtension(f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ext
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := NewEvaluator(sys, P, props)
			for i, f := range formulas {
				ext, err := ev.DenseExtension(f)
				if err != nil {
					errs <- err
					return
				}
				if !ext.Equal(want[i]) {
					errs <- fmt.Errorf("concurrent evaluation of %s disagrees", f)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// forceParallel drops the sharding threshold so the parallel kernels engage
// on small differential fixtures, and returns the restore function.
func forceParallel() func() {
	old := parMinPoints
	parMinPoints = 1
	return func() { parMinPoints = old }
}

// TestDifferentialParallelVsReference repeats the executable-specification
// check with the parallel engine forced on: budget 4, sharding threshold 1.
// Every operator class must agree point-for-point with the naive
// ReferenceEvaluator no matter how the sweeps were sharded.
func TestDifferentialParallelVsReference(t *testing.T) {
	defer forceParallel()()
	for _, dc := range differentialCases(4000, 20) {
		P := core.NewProbAssignment(dc.sys, core.Post(dc.sys))
		dense := NewEvaluator(dc.sys, P, dc.props)
		dense.SetParallelism(4)
		naive := NewReferenceEvaluator(dc.sys, P, dc.props)

		for _, f := range dc.formulas {
			want, errN := naive.Extension(f)
			got, errD := dense.Extension(f)
			if (errN == nil) != (errD == nil) {
				t.Fatalf("seed %d formula %s: error disagreement: naive %v, parallel %v", dc.seed, f, errN, errD)
			}
			if errN != nil {
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d formula %s: parallel extension differs from reference", dc.seed, f)
			}
		}
	}
}

// TestDifferentialParallelScaleSystem pits the budget-4 engine against the
// reference evaluator on a broom system large enough that ParRange really
// splits the sweeps into multiple 64-aligned shards, covering every
// operator family the engine shards.
func TestDifferentialParallelScaleSystem(t *testing.T) {
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 256, RunLen: 6, Buckets: 8})
	props := map[string]system.Fact{
		"p": gen.ScaleFact("p", 3),
		"q": gen.ScaleFact("q", 5),
	}
	P := core.NewProbAssignment(sys, core.Post(sys))
	dense := NewEvaluator(sys, P, props)
	dense.SetParallelism(4)
	defer forceParallel()()
	naive := NewReferenceEvaluator(sys, P, props)

	g := []system.AgentID{0, 1}
	formulas := []Formula{
		Prop("p"),
		And(Prop("p"), Not(Prop("q"))),
		K(0, Prop("p")),
		Everyone(g, Prop("p")),
		Common(g, Or(Prop("p"), Prop("q"))),
		PrGeq(0, Prop("p"), rat.New(1, 3)),
		PrLeq(1, Prop("q"), rat.New(2, 3)),
		EveryonePr(g, Prop("p"), rat.Half),
		CommonPr(g, Prop("p"), rat.New(1, 3)),
		Always(Implies(Prop("p"), K(1, Prop("p")))),
		Until(Prop("p"), PrGeq(1, Prop("q"), rat.New(1, 5))),
	}
	for _, f := range formulas {
		want, err := naive.Extension(f)
		if err != nil {
			t.Fatalf("reference %s: %v", f, err)
		}
		got, err := dense.Extension(f)
		if err != nil {
			t.Fatalf("parallel %s: %v", f, err)
		}
		if !got.Equal(want) {
			t.Fatalf("formula %s: parallel extension differs from reference", f)
		}
	}
}

// TestConcurrentParallelSharedIndex is the race-detector drill for the full
// sharing story: concurrent budget-4 evaluators draw extra workers from one
// shared Gate, report into one EngineMetrics, and build/read one shared
// system.Index and cell partition while their shards are running.
func TestConcurrentParallelSharedIndex(t *testing.T) {
	defer forceParallel()()
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 128, RunLen: 5, Buckets: 8})
	props := map[string]system.Fact{"p": gen.ScaleFact("p", 3)}
	P := core.NewProbAssignment(sys, core.Post(sys))

	g := []system.AgentID{0, 1}
	formulas := []Formula{
		Common(g, Prop("p")),
		CommonPr(g, Prop("p"), rat.Half),
		Always(Implies(Prop("p"), K(0, Prop("p")))),
		Until(Prop("p"), PrGeq(1, Prop("p"), rat.New(1, 3))),
	}

	ref := NewEvaluator(sys, P, props)
	want := make([]*system.DenseSet, len(formulas))
	for i, f := range formulas {
		ext, err := ref.DenseExtension(f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ext
	}

	gate := system.NewGate(3)
	metrics := &EngineMetrics{}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := NewEvaluator(sys, P, props)
			ev.SetParallelism(4)
			ev.SetGate(gate)
			ev.SetEngineMetrics(metrics)
			for i, f := range formulas {
				ext, err := ev.DenseExtension(f)
				if err != nil {
					errs <- err
					return
				}
				if !ext.Equal(want[i]) {
					errs <- fmt.Errorf("concurrent parallel evaluation of %s disagrees", f)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if gate.TryAcquire(3) != 3 {
		t.Fatal("gate tokens leaked: not all extra workers were released")
	}
	if metrics.SerialPaths.Load()+metrics.ParallelPaths.Load() == 0 {
		t.Fatal("engine metrics recorded no regions")
	}
}

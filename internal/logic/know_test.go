package logic

import (
	"fmt"
	"testing"

	"kpa/internal/gen"
	"kpa/internal/system"
)

// oracleKnow computes the dense extension of K_i straight from ∼_i: a
// point is in it when every point with agent i's local state lies in ext.
// It shares no code with system.CellPartition.
func oracleKnow(idx *system.Index, i system.AgentID, ext *system.DenseSet) *system.DenseSet {
	inside := make(map[system.LocalState]bool)
	for id := 0; id < idx.NumPoints(); id++ {
		l := idx.PointAt(id).Local(i)
		in, seen := inside[l]
		inside[l] = (in || !seen) && ext.Contains(id)
	}
	out := idx.NewDense()
	for id := 0; id < idx.NumPoints(); id++ {
		if inside[idx.PointAt(id).Local(i)] {
			out.Add(id)
		}
	}
	return out
}

// TestKnowKernelMatchesOracle checks the cell-partition knowledge kernel
// against oracleKnow on seeded gen systems and on the scale:100k broom, at
// 1, 2 and 4 workers, both called directly and through the evaluator's K
// operator with parMinPoints lowered so every region shards. The sets
// tested are each proposition's extension, its complement, the empty and
// full sets, and a set that cuts across every cell. Run under -race it
// also checks that the sharded phases do not race.
func TestKnowKernelMatchesOracle(t *testing.T) {
	defer forceParallel()()

	type fixture struct {
		name  string
		sys   *system.System
		props map[string]system.Fact
	}
	var fixtures []fixture
	for _, dc := range differentialCases(3000, 12) {
		fixtures = append(fixtures, fixture{fmt.Sprintf("gen seed %d", dc.seed), dc.sys, dc.props})
	}
	if !testing.Short() {
		sys := gen.MustScaleSystem(gen.ScaleTiers["100k"])
		fixtures = append(fixtures, fixture{"scale:100k", sys, map[string]system.Fact{
			"p": gen.ScaleFact("p", 3),
			"q": gen.ScaleFact("q", 7),
		}})
	}
	for _, fx := range fixtures {
		idx := fx.sys.Index()
		sets := map[string]*system.DenseSet{"empty": idx.NewDense(), "full": idx.FullDense()}
		cut := idx.NewDense()
		for id := 0; id < idx.NumPoints(); id++ {
			if id%7 != 0 {
				cut.Add(id)
			}
		}
		sets["cut"] = cut
		private := NewEvaluator(fx.sys, nil, fx.props)
		for name := range fx.props {
			ext, err := private.DenseExtension(Prop(name))
			if err != nil {
				t.Fatal(err)
			}
			sets[name] = ext
			sets["!"+name] = ext.Complement()
		}
		for i := 0; i < fx.sys.NumAgents(); i++ {
			agent := system.AgentID(i)
			// The first build shards too.
			cells := idx.CellsPar(agent, 4)
			for setName, ext := range sets {
				want := oracleKnow(idx, agent, ext).Key()
				for _, workers := range []int{1, 2, 4} {
					if got := cells.KnowExtension(ext, workers, nil); got.Key() != want {
						t.Fatalf("%s: K%d over %s at %d workers differs from the oracle", fx.name, i+1, setName, workers)
					}
				}
			}
			for name := range fx.props {
				want := oracleKnow(idx, agent, sets[name]).Key()
				for _, workers := range []int{1, 2, 4} {
					ev := NewEvaluator(fx.sys, nil, fx.props)
					ev.SetParallelism(workers)
					got, err := ev.DenseExtension(K(agent, Prop(name)))
					if err != nil {
						t.Fatal(err)
					}
					if got.Key() != want {
						t.Fatalf("%s: evaluator K%d %s at %d workers differs from the oracle", fx.name, i+1, name, workers)
					}
				}
			}
		}
	}
}

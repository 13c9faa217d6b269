package core

import (
	"errors"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/gen"
	"kpa/internal/measure"
	"kpa/internal/system"
)

// TestTableMatchesSpaces checks every dense space table against the map-
// based measure.Space specification: for every agent and point, the dense
// space of the point has the spec space's runs, fibers and base
// probability, and points share a dense space exactly when their samples
// are equal. Keyed and unkeyed assignments must give the same spaces.
func TestTableMatchesSpaces(t *testing.T) {
	systems := map[string]*system.System{
		"introcoin": canon.IntroCoin(),
		"die":       canon.Die(),
		"async3":    canon.AsyncCoins(3),
		"scale":     gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 300, RunLen: 4, Buckets: 4}),
	}
	for name, sys := range systems {
		post := Post(sys)
		assigns := []SampleAssignment{post, Future(sys), Prior(sys), Opponent(sys, 0),
			NewAssignment("post/unkeyed", post.Sample)}
		idx := sys.Index()
		for _, sa := range assigns {
			P := NewProbAssignment(sys, sa)
			for _, i := range sys.Agents() {
				tab, err := P.Table(i, 2, nil)
				if err != nil {
					t.Fatalf("%s/%s p%d: %v", name, sa.Name(), i+1, err)
				}
				if P.TableIfBuilt(i) != tab {
					t.Fatalf("%s/%s p%d: built table not published", name, sa.Name(), i+1)
				}
				specOf := make(map[int]*measure.Space) // dense space → its spec
				for id := 0; id < idx.NumPoints(); id++ {
					spec := P.MustSpace(i, idx.PointAt(id))
					k := tab.SpaceOf(id)
					prev, ok := specOf[k]
					switch {
					case !ok:
						specOf[k] = spec
						checkDenseSpace(t, idx, tab.Space(k), spec)
					case prev != spec && !prev.Sample().Equal(spec.Sample()):
						t.Fatalf("%s/%s p%d: points with different samples share dense space %d", name, sa.Name(), i+1, k)
					}
				}
				if len(specOf) != tab.NumSpaces() {
					t.Fatalf("%s/%s p%d: %d of %d spaces used", name, sa.Name(), i+1, len(specOf), tab.NumSpaces())
				}
			}
		}
	}
}

func checkDenseSpace(t *testing.T, idx *system.Index, ds *DenseSpace, spec *measure.Space) {
	t.Helper()
	if ds.Tree() != spec.Tree() || !ds.BaseProb().Equal(spec.BaseProb()) {
		t.Fatalf("dense space tree/base %s differs from spec %s", ds.BaseProb(), spec.BaseProb())
	}
	runs := spec.Runs().Runs()
	if len(runs) != len(ds.Runs()) {
		t.Fatalf("dense space has %d runs, spec %d", len(ds.Runs()), len(runs))
	}
	for k, r := range runs {
		if ds.Runs()[k] != r {
			t.Fatalf("dense run %d is %d, spec %d", k, ds.Runs()[k], r)
		}
		fiber := spec.Fiber(r).Sorted()
		ids := ds.Fiber(k)
		if len(ids) != len(fiber) {
			t.Fatalf("run %d: dense fiber has %d points, spec %d", r, len(ids), len(fiber))
		}
		for j, p := range fiber {
			if int(ids[j]) != idx.MustID(p) {
				t.Fatalf("run %d: dense fiber point %d is ID %d, spec %v", r, j, ids[j], p)
			}
		}
	}
}

// TestTableREQErrors checks that a table build reports REQ violations
// with measure's typed errors and publishes nothing.
func TestTableREQErrors(t *testing.T) {
	sys := canon.VardiCoin()
	cases := []struct {
		sa   SampleAssignment
		want error
	}{
		{NewAssignment("allK", func(i system.AgentID, c system.Point) system.PointSet {
			return sys.K(i, c)
		}), measure.ErrSpansTrees},
		{NewAssignment("empty", func(system.AgentID, system.Point) system.PointSet {
			return system.NewPointSet()
		}), measure.ErrEmptySample},
	}
	for _, tc := range cases {
		P := NewProbAssignment(sys, tc.sa)
		var err error
		for _, i := range sys.Agents() {
			if _, err = P.Table(i, 1, nil); err != nil {
				if P.TableIfBuilt(i) != nil {
					t.Errorf("%s: failed build published a table", tc.sa.Name())
				}
				break
			}
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.sa.Name(), err, tc.want)
		}
	}
}

// TestTableStopPublishesNothing stops a build midway: it returns
// ErrStopped, publishes nothing, and the next call builds the table.
func TestTableStopPublishesNothing(t *testing.T) {
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 2048, RunLen: 4, Buckets: 8})
	P := NewProbAssignment(sys, Post(sys))
	polls := 0
	_, err := P.Table(0, 1, func() bool { polls++; return true })
	if !errors.Is(err, ErrStopped) || polls == 0 {
		t.Fatalf("stopped build: err %v after %d polls, want ErrStopped", err, polls)
	}
	if P.TableIfBuilt(0) != nil {
		t.Fatal("stopped build published a table")
	}
	tab, err := P.Table(0, 1, nil)
	if err != nil || tab == nil || P.TableIfBuilt(0) != tab {
		t.Fatalf("rebuild after stop: %v", err)
	}
}

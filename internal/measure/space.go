package measure

import (
	"errors"
	"fmt"
	"sort"

	"kpa/internal/rat"
	"kpa/internal/system"
)

// Errors returned by Space operations.
var (
	// ErrSpansTrees is returned when a sample space violates REQ1 by
	// containing points from more than one computation tree.
	ErrSpansTrees = errors.New("measure: sample space spans multiple computation trees (REQ1)")
	// ErrZeroMeasure is returned when a sample space violates REQ2 because
	// the runs through it have probability zero.
	ErrZeroMeasure = errors.New("measure: runs through sample space have zero probability (REQ2)")
	// ErrEmptySample is returned for an empty sample space.
	ErrEmptySample = errors.New("measure: empty sample space")
	// ErrNotMeasurable is returned when asked for the exact probability of
	// a set outside the projection σ-algebra X_ic.
	ErrNotMeasurable = errors.New("measure: point set is not measurable")
)

// Space is the probability space P_ic = (S_ic, X_ic, μ_ic) of Section 5,
// induced on a set of points S_ic by the run distribution of its computation
// tree:
//
//   - the measurable sets X_ic are the projections Proj(R′, S_ic) of run
//     sets R′ onto S_ic — equivalently, the subsets of S_ic that are unions
//     of run fibers (a run's fiber is the set of points of S_ic on it);
//   - μ_ic(S) = μ_A(R(S) | R(S_ic)), conditional probability of the runs
//     through S given the runs through S_ic.
//
// Construction enforces REQ1 (single tree) and REQ2 (positive measure);
// Propositions 1 and 2 of the paper then guarantee Space is a genuine
// probability space, which TestPropositions2 re-checks mechanically.
type Space struct {
	tree   *system.Tree
	sample system.PointSet
	base   rat.Rat // μ_A(R(S_ic)) > 0

	// runs lists R(S_ic) in ascending order and fibers[k] the sample points
	// on runs[k] in time order: the run fiber index, sized to the sample
	// rather than to the tree, so a space costs memory linear in |S_ic|.
	// Every measure query (Inner, Outer, IsMeasurable, Prob, Expect) reduces
	// to a walk over the fibers, so precomputing them once at construction
	// removes the per-call RunsThrough projections.
	runs   []int
	fibers [][]system.Point
}

// NewSpace builds the induced probability space over the given sample set of
// points, validating REQ1 and REQ2.
func NewSpace(sample system.PointSet) (*Space, error) {
	if sample.IsEmpty() {
		return nil, ErrEmptySample
	}
	tree := sample.SingleTree()
	if tree == nil {
		return nil, ErrSpansTrees
	}
	// Sorted orders one tree's points by run, then time, so each fiber is
	// a contiguous stretch of the sorted slice and shares its backing array.
	sorted := sample.Sorted()
	n := 1
	for k := 1; k < len(sorted); k++ {
		if sorted[k].Run != sorted[k-1].Run {
			n++
		}
	}
	runs := make([]int, 0, n)
	fibers := make([][]system.Point, 0, n)
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi].Run == sorted[lo].Run {
			hi++
		}
		runs = append(runs, sorted[lo].Run)
		fibers = append(fibers, sorted[lo:hi:hi])
		lo = hi
	}
	base := tree.ProbRuns(runs)
	if base.Sign() <= 0 {
		return nil, ErrZeroMeasure
	}
	return &Space{tree: tree, sample: sample.Clone(), base: base, runs: runs, fibers: fibers}, nil
}

// MustSpace is NewSpace but panics on error; for tests and examples.
func MustSpace(sample system.PointSet) *Space {
	s, err := NewSpace(sample)
	if err != nil {
		panic(err)
	}
	return s
}

// Tree returns the computation tree T(c) the space lives in.
func (s *Space) Tree() *system.Tree { return s.tree }

// Sample returns the sample set S_ic. It must not be modified.
func (s *Space) Sample() system.PointSet { return s.sample }

// Runs returns R(S_ic), the runs passing through the sample set.
func (s *Space) Runs() system.RunSet {
	rs := system.NewRunSet(s.tree.NumRuns())
	for _, r := range s.runs {
		rs.Add(r)
	}
	return rs
}

// BaseProb returns μ_A(R(S_ic)), the unconditional probability of the runs
// through the sample set.
func (s *Space) BaseProb() rat.Rat { return s.base }

// Fiber returns the points of the sample set lying on run r.
func (s *Space) Fiber(r int) system.PointSet {
	k := sort.SearchInts(s.runs, r)
	if k == len(s.runs) || s.runs[k] != r {
		return make(system.PointSet)
	}
	return system.NewPointSet(s.fibers[k]...)
}

// IsMeasurable reports whether set ∩ S_ic ∈ X_ic, i.e. whether the set is a
// union of run fibers of the sample space.
func (s *Space) IsMeasurable(set system.PointSet) bool {
	return s.isMeasurableFunc(set.Contains)
}

func (s *Space) isMeasurableFunc(contains func(system.Point) bool) bool {
	// Measurable ⟺ every fiber is hit entirely or not at all.
	for _, fiber := range s.fibers {
		hits := 0
		for _, p := range fiber {
			if contains(p) {
				hits++
			}
		}
		if hits != 0 && hits != len(fiber) {
			return false
		}
	}
	return true
}

// hitRuns returns R(set ∩ S_ic): the runs whose fiber meets the set.
func (s *Space) hitRuns(contains func(system.Point) bool) system.RunSet {
	hit := system.NewRunSet(s.tree.NumRuns())
	for k, fiber := range s.fibers {
		for _, p := range fiber {
			if contains(p) {
				hit.Add(s.runs[k])
				break
			}
		}
	}
	return hit
}

// Prob returns μ_ic(set ∩ S_ic). It returns ErrNotMeasurable if the set is
// not in X_ic; use Inner/Outer for bounds in that case.
func (s *Space) Prob(set system.PointSet) (rat.Rat, error) {
	if !s.IsMeasurable(set) {
		return rat.Rat{}, fmt.Errorf("%w: %d points", ErrNotMeasurable, set.Len())
	}
	return s.tree.Prob(s.hitRuns(set.Contains)).Div(s.base), nil
}

// innerRuns returns the runs of R(S_ic) whose entire fiber lies inside the
// set — the largest measurable subset of the set is their projection.
func (s *Space) innerRuns(contains func(system.Point) bool) system.RunSet {
	ok := system.NewRunSet(s.tree.NumRuns())
next:
	for k, fiber := range s.fibers {
		for _, p := range fiber {
			if !contains(p) {
				continue next
			}
		}
		ok.Add(s.runs[k])
	}
	return ok
}

// Inner returns the inner measure (μ_ic)_*(set): the best lower bound on the
// probability of the set, sup{μ(T) : T ⊆ set, T ∈ X_ic}.
func (s *Space) Inner(set system.PointSet) rat.Rat {
	return s.InnerFunc(set.Contains)
}

// InnerFunc is Inner with the set given as a membership predicate, so
// callers holding a non-PointSet representation (a DenseSet, a Fact) can
// query without materializing a map.
func (s *Space) InnerFunc(contains func(system.Point) bool) rat.Rat {
	return s.tree.Prob(s.innerRuns(contains)).Div(s.base)
}

// InnerRuns returns the runs of R(S_ic) whose entire fiber satisfies the
// predicate — the run projection of the largest measurable subset. Together
// with ProbOfRuns it splits InnerFunc into the cheap bit-scanning half and
// the expensive rational-arithmetic half, so callers evaluating many
// near-identical queries (fixpoint iterations) can memoize the second half
// by run pattern (RunSet.Key).
func (s *Space) InnerRuns(contains func(system.Point) bool) system.RunSet {
	return s.innerRuns(contains)
}

// OuterRuns returns R(set ∩ S_ic): the runs whose fiber meets the
// predicate. It is the run-level half of OuterFunc, as InnerRuns is of
// InnerFunc.
func (s *Space) OuterRuns(contains func(system.Point) bool) system.RunSet {
	return s.hitRuns(contains)
}

// ProbOfRuns returns the conditioned probability of a run set:
// μ_A(rs)/μ_A(R(S_ic)). Combined with InnerRuns/OuterRuns it reproduces
// InnerFunc/OuterFunc.
func (s *Space) ProbOfRuns(rs system.RunSet) rat.Rat {
	return s.tree.Prob(rs).Div(s.base)
}

// Outer returns the outer measure (μ_ic)*(set): the best upper bound,
// inf{μ(T) : T ⊇ set, T ∈ X_ic}.
func (s *Space) Outer(set system.PointSet) rat.Rat {
	return s.OuterFunc(set.Contains)
}

// OuterFunc is Outer with the set given as a membership predicate.
func (s *Space) OuterFunc(contains func(system.Point) bool) rat.Rat {
	return s.tree.Prob(s.hitRuns(contains)).Div(s.base)
}

// ProbFact returns μ_ic(S_ic(φ)) for a fact φ, or ErrNotMeasurable.
// Membership is tested fiber-wise, so the restricted set S_ic(φ) is never
// materialized.
func (s *Space) ProbFact(phi system.Fact) (rat.Rat, error) {
	if !s.isMeasurableFunc(phi.Holds) {
		return rat.Rat{}, fmt.Errorf("%w: fact %s", ErrNotMeasurable, phi)
	}
	return s.tree.Prob(s.hitRuns(phi.Holds)).Div(s.base), nil
}

// InnerFact returns the inner measure of S_ic(φ).
func (s *Space) InnerFact(phi system.Fact) rat.Rat {
	return s.InnerFunc(phi.Holds)
}

// OuterFact returns the outer measure of S_ic(φ).
func (s *Space) OuterFact(phi system.Fact) rat.Rat {
	return s.OuterFunc(phi.Holds)
}

// IsFactMeasurable reports whether S_ic(φ) ∈ X_ic.
func (s *Space) IsFactMeasurable(phi system.Fact) bool {
	return s.isMeasurableFunc(phi.Holds)
}

// Condition returns the space obtained by conditioning on a measurable
// subset of the sample set with positive probability — the operation of
// Proposition 5(c). The result is exactly NewSpace(sub): conditioning the
// conditional distribution is conditioning on the smaller set.
func (s *Space) Condition(sub system.PointSet) (*Space, error) {
	if !sub.SubsetOf(s.sample) {
		return nil, fmt.Errorf("measure: conditioning set is not a subset of the sample space")
	}
	if !s.IsMeasurable(sub) {
		return nil, fmt.Errorf("condition: %w", ErrNotMeasurable)
	}
	return NewSpace(sub)
}

// Expect returns the expectation of a random variable w over the space. The
// variable must be measurable, i.e. constant on every run fiber; otherwise
// ErrNotMeasurable is returned (use InnerExpectTwoValued for the two-valued
// non-measurable case).
func (s *Space) Expect(w func(system.Point) rat.Rat) (rat.Rat, error) {
	// Walk the run fibers; verify constancy per fiber.
	acc := rat.Zero
	for k, fiber := range s.fibers {
		v := w(fiber[0])
		for _, p := range fiber[1:] {
			if !w(p).Equal(v) {
				return rat.Rat{}, fmt.Errorf("expect: %w: variable not constant on run %d",
					ErrNotMeasurable, s.runs[k])
			}
		}
		acc = acc.Add(v.Mul(s.tree.RunProb(s.runs[k])))
	}
	return acc.Div(s.base), nil
}

// ExpectTwoValued returns the expectation of the two-valued random variable
// that is high on the given set (within the sample) and low elsewhere,
// provided the set is measurable.
func (s *Space) ExpectTwoValued(high, low rat.Rat, set system.PointSet) (rat.Rat, error) {
	p, err := s.Prob(set)
	if err != nil {
		return rat.Rat{}, err
	}
	return high.Mul(p).Add(low.Mul(rat.One.Sub(p))), nil
}

// InnerExpectTwoValued returns the inner expectation (Appendix B.2) of the
// two-valued random variable that is high on the set and low elsewhere,
// where high > low:
//
//	Ê_*(X) = high·μ_*(X=high) + low·μ*(X=low)
//	       = high·μ_*(set) + low·(1 − μ_*(set)).
//
// It coincides with the ordinary expectation when the set is measurable,
// and is the infimum of expectations over measure extensions otherwise.
func (s *Space) InnerExpectTwoValued(high, low rat.Rat, set system.PointSet) rat.Rat {
	if !high.Greater(low) {
		panic("measure: InnerExpectTwoValued requires high > low")
	}
	inner := s.Inner(set)
	return high.Mul(inner).Add(low.Mul(rat.One.Sub(inner)))
}

// OuterExpectTwoValued is the dual upper bound:
// Ê*(X) = high·μ*(set) + low·(1 − μ*(set)).
func (s *Space) OuterExpectTwoValued(high, low rat.Rat, set system.PointSet) rat.Rat {
	if !high.Greater(low) {
		panic("measure: OuterExpectTwoValued requires high > low")
	}
	outer := s.Outer(set)
	return high.Mul(outer).Add(low.Mul(rat.One.Sub(outer)))
}

// MeasurableSets enumerates X_ic as point sets, one per measurable run set
// of R(S_ic); intended for small spaces in tests (2^|runs| sets!).
func (s *Space) MeasurableSets() []system.PointSet {
	runs := s.runs
	n := len(runs)
	if n > 20 {
		panic("measure: MeasurableSets on more than 2^20 sets")
	}
	out := make([]system.PointSet, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		rs := system.NewRunSet(s.tree.NumRuns())
		for i, r := range runs {
			if mask&(1<<i) != 0 {
				rs.Add(r)
			}
		}
		out = append(out, system.Proj(s.tree, rs, s.sample))
	}
	return out
}

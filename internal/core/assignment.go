// Package core implements the primary contribution of Halpern & Tuttle's
// "Knowledge, Probability, and Adversaries": sample-space assignments and
// the probability assignments they induce (Sections 5–6).
//
// A sample-space assignment S maps an agent p_i and a point c to a set of
// points S_ic satisfying REQ1 (all points in c's computation tree) and REQ2
// (the runs through S_ic have positive probability). Conditioning the tree's
// run distribution on the runs through S_ic induces the probability space
// P_ic = (S_ic, X_ic, μ_ic) — see the measure package — and therewith the
// truth of formulas "p_i knows φ holds with probability α".
//
// The four canonical assignments of Section 6 are provided:
//
//	S^post    S_ic = Tree_ic            (opponent = a copy of yourself)
//	S^j       S_ic = Tree_ic ∩ Tree_jc  (opponent = agent p_j)
//	S^fut     S_ic = Pref_ic            (opponent knows the whole past)
//	S^prior   S_ic = All_ic             (mimics the prior over runs)
//
// ordered S^fut ≤ S^j ≤ S^post ≤ S^prior in the lattice of assignments;
// each corresponds to betting against an opponent of a different strength.
package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"kpa/internal/measure"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// SampleAssignment assigns a sample space of points to each (agent, point)
// pair. Implementations are bound to a specific system.
type SampleAssignment interface {
	// Name identifies the assignment for diagnostics ("post", "fut", ...).
	Name() string
	// Sample returns S_ic for agent i at point c. The result must satisfy
	// REQ1 and REQ2; callers treat it as immutable.
	Sample(i system.AgentID, c system.Point) system.PointSet
}

// KeyedAssignment is an optional extension of SampleAssignment: SampleKey
// returns a cheap cache key such that two (agent, point) pairs with equal
// keys are guaranteed to have equal sample spaces. ProbAssignment uses it to
// share one induced probability space among all points of an information
// cell, which matters enormously for model checking (the post assignment
// over the 2^10-run asynchronous system would otherwise rebuild a
// 10·2^10-point space at every one of its 11·2^10 points).
type KeyedAssignment interface {
	SampleAssignment
	// SampleKey returns the cache key and true, or ("", false) if no key is
	// available for this pair (the caller then falls back to per-point
	// construction).
	SampleKey(i system.AgentID, c system.Point) (string, bool)
}

// funcAssignment adapts a function into a SampleAssignment with an optional
// sample key.
type funcAssignment struct {
	name string
	fn   func(system.AgentID, system.Point) system.PointSet
	key  func(system.AgentID, system.Point) (string, bool)
}

var _ KeyedAssignment = funcAssignment{}

func (a funcAssignment) Name() string { return a.name }

func (a funcAssignment) Sample(i system.AgentID, c system.Point) system.PointSet {
	return a.fn(i, c)
}

func (a funcAssignment) SampleKey(i system.AgentID, c system.Point) (string, bool) {
	if a.key == nil {
		return "", false
	}
	return a.key(i, c)
}

// NewAssignment wraps a function as a SampleAssignment.
func NewAssignment(name string, fn func(system.AgentID, system.Point) system.PointSet) SampleAssignment {
	return funcAssignment{name: name, fn: fn}
}

// NewKeyedAssignment wraps a sample function plus a cache-key function (see
// KeyedAssignment) as a SampleAssignment.
func NewKeyedAssignment(
	name string,
	fn func(system.AgentID, system.Point) system.PointSet,
	key func(system.AgentID, system.Point) (string, bool),
) SampleAssignment {
	return funcAssignment{name: name, fn: fn, key: key}
}

// Post returns S^post for the system: S_ic = Tree_ic, the points of c's tree
// the agent considers possible. This is the assignment of [FZ88a] in the
// synchronous case; it corresponds to betting against an opponent with
// exactly your own knowledge, and to a decision theorist's posterior.
func Post(sys *system.System) SampleAssignment {
	return NewKeyedAssignment("post",
		func(i system.AgentID, c system.Point) system.PointSet {
			return sys.KInTree(i, c)
		},
		func(i system.AgentID, c system.Point) (string, bool) {
			// Tree_ic is determined by c's tree and i's local state.
			return c.Tree.Adversary + "\x00" + string(c.Local(i)), true
		})
}

// Opponent returns S^j for the system: S_ic = Tree_ic ∩ Tree_jc, the joint
// knowledge of p_i and its betting opponent p_j. Note S^i = S^post.
func Opponent(sys *system.System, j system.AgentID) SampleAssignment {
	return NewKeyedAssignment("opp(p"+strconv.Itoa(int(j)+1)+")",
		func(i system.AgentID, c system.Point) system.PointSet {
			return sys.KInTree(i, c).Intersect(sys.KInTree(j, c))
		},
		func(i system.AgentID, c system.Point) (string, bool) {
			return c.Tree.Adversary + "\x00" + string(c.Local(i)) + "\x00" + string(c.Local(j)), true
		})
}

// Future returns S^fut for the system: S_ic = Pref_ic, all points with the
// same global state as c — the assignment of [HMT88] and [LS82],
// corresponding to an opponent with complete knowledge of the past. Events
// decided before c have probability 0 or 1; future events keep nontrivial
// probabilities.
func Future(sys *system.System) SampleAssignment {
	return NewKeyedAssignment("fut",
		func(_ system.AgentID, c system.Point) system.PointSet {
			node := c.Tree.Run(c.Run)[c.Time]
			return system.NewPointSet(sys.PointsOnNode(c.Tree, node)...)
		},
		func(_ system.AgentID, c system.Point) (string, bool) {
			// Pref_ic is determined by the node (global state).
			return c.Tree.Adversary + "\x00#" + strconv.Itoa(int(c.Tree.Run(c.Run)[c.Time])), true
		})
}

// Prior returns S^prior for the system: S_ic = All_ic, every point of c's
// tree at c's time. The induced space simulates the a-priori probability on
// the runs; the assignment is inconsistent (S_ic ⊄ K_i(c) in general) —
// using it, an agent ignores everything it has learned.
func Prior(sys *system.System) SampleAssignment {
	return NewKeyedAssignment("prior",
		func(_ system.AgentID, c system.Point) system.PointSet {
			return system.NewPointSet(sys.PointsAtTime(c.Tree, c.Time)...)
		},
		func(_ system.AgentID, c system.Point) (string, bool) {
			return c.Tree.Adversary + "\x00@" + strconv.Itoa(c.Time), true
		})
}

// --- assignment properties (Section 6) ---

// IsConsistent reports whether S_ic ⊆ K_i(c) for all agents and points: the
// condition characterizing K_i(φ) ⇒ Pr_i(φ)=1.
func IsConsistent(sys *system.System, s SampleAssignment) bool {
	for c := range sys.Points() {
		for _, i := range sys.Agents() {
			if !s.Sample(i, c).SubsetOf(sys.K(i, c)) {
				return false
			}
		}
	}
	return true
}

// IsStateGenerated reports whether every S_ic contains all points sharing a
// global state with any of its points.
func IsStateGenerated(sys *system.System, s SampleAssignment) bool {
	all := sys.Points()
	for c := range all {
		for _, i := range sys.Agents() {
			if !s.Sample(i, c).IsStateGenerated(all) {
				return false
			}
		}
	}
	return true
}

// IsInclusive reports whether c ∈ S_ic for all agents and points.
func IsInclusive(sys *system.System, s SampleAssignment) bool {
	for c := range sys.Points() {
		for _, i := range sys.Agents() {
			if !s.Sample(i, c).Contains(c) {
				return false
			}
		}
	}
	return true
}

// IsUniform reports whether d ∈ S_ic implies S_id = S_ic.
func IsUniform(sys *system.System, s SampleAssignment) bool {
	for c := range sys.Points() {
		for _, i := range sys.Agents() {
			sic := s.Sample(i, c)
			for d := range sic {
				if !s.Sample(i, d).Equal(sic) {
					return false
				}
			}
		}
	}
	return true
}

// IsStandard reports whether the assignment is state generated, inclusive
// and uniform — the properties the paper assumes of assignments "in
// practice" throughout Section 6.
func IsStandard(sys *system.System, s SampleAssignment) bool {
	return IsStateGenerated(sys, s) && IsInclusive(sys, s) && IsUniform(sys, s)
}

// CheckREQ reports whether every S_ic satisfies REQ1 and REQ2, returning a
// descriptive error for the first violation.
func CheckREQ(sys *system.System, s SampleAssignment) error {
	for c := range sys.Points() {
		for _, i := range sys.Agents() {
			sic := s.Sample(i, c)
			if sic.IsEmpty() {
				return fmt.Errorf("core: S(%d,%v) is empty", i, c)
			}
			tree := sic.SingleTree()
			if tree == nil {
				return fmt.Errorf("core: S(%d,%v) violates REQ1 (spans trees)", i, c)
			}
			if tree != c.Tree {
				return fmt.Errorf("core: S(%d,%v) lies in tree %q, not T(c)=%q",
					i, c, tree.Adversary, c.Tree.Adversary)
			}
			if tree.Prob(sic.RunsThrough(tree)).Sign() <= 0 {
				return fmt.Errorf("core: S(%d,%v) violates REQ2 (zero-probability runs)", i, c)
			}
		}
	}
	return nil
}

// LessEq reports whether s ≤ s′ in the lattice of assignments:
// S_ic ⊆ S′_ic for every agent and point. Intuitively s′'s opponent knows
// less (considers more possible) than s's.
func LessEq(sys *system.System, s, sPrime SampleAssignment) bool {
	for c := range sys.Points() {
		for _, i := range sys.Agents() {
			if !s.Sample(i, c).SubsetOf(sPrime.Sample(i, c)) {
				return false
			}
		}
	}
	return true
}

// Less reports strict lattice order: s ≤ s′ and the assignments differ
// somewhere.
func Less(sys *system.System, s, sPrime SampleAssignment) bool {
	if !LessEq(sys, s, sPrime) {
		return false
	}
	for c := range sys.Points() {
		for _, i := range sys.Agents() {
			if !s.Sample(i, c).Equal(sPrime.Sample(i, c)) {
				return true
			}
		}
	}
	return false
}

// Partition returns, per Proposition 4, the partition of S′_ic into sets of
// the form S_id with d ∈ S′_ic, for standard assignments s ≤ s′. The second
// return value is false if the sets do not in fact partition S′_ic (which
// Proposition 4 says cannot happen for standard assignments).
func Partition(s SampleAssignment, i system.AgentID, cPrimeSample system.PointSet) ([]system.PointSet, bool) {
	var cells []system.PointSet
	seen := make(system.PointSet)
	for _, d := range cPrimeSample.Sorted() {
		if seen.Contains(d) {
			continue
		}
		cell := s.Sample(i, d)
		if !cell.SubsetOf(cPrimeSample) {
			return nil, false
		}
		for p := range cell {
			if seen.Contains(p) {
				return nil, false // overlapping cells: not a partition
			}
			seen.Add(p)
		}
		cells = append(cells, cell)
	}
	if !seen.Equal(cPrimeSample) {
		return nil, false
	}
	return cells, true
}

// --- probability assignments ---

// ProbAssignment is the probability assignment P induced by a sample-space
// assignment S and the transition probabilities of the system's trees: it
// lazily constructs and caches the probability space P_ic for each
// (agent, point), and each agent's dense space table (Table) for the dense
// evaluator.
//
// A ProbAssignment is safe for concurrent use, provided its
// SampleAssignment is (the assignments of this package are): everything it
// caches depends only on the immutable system and assignment, so one
// instance is meant to be shared — the service keeps one per evaluator
// pool, and every evaluator of the pool reads the same tables.
type ProbAssignment struct {
	sys    *system.System
	sample SampleAssignment

	mu     sync.Mutex
	spaces map[spaceKey]*measure.Space // guarded by mu
	// building[i] is closed when the build of agent i's table that is in
	// flight ends; nil when none is.
	building []chan struct{} // guarded by mu

	// tables[i] is agent i's dense space table once built; a nil slot is
	// unbuilt.
	tables []atomic.Pointer[SpaceTable]
}

// spaceKey identifies a cached space: by the sample key for a keyed pair,
// so all points of an information cell share one space, and by the point
// itself (key empty) otherwise.
type spaceKey struct {
	i   system.AgentID
	key string
	c   system.Point
}

// NewProbAssignment binds a sample-space assignment to its system.
func NewProbAssignment(sys *system.System, s SampleAssignment) *ProbAssignment {
	return &ProbAssignment{
		sys:      sys,
		sample:   s,
		spaces:   make(map[spaceKey]*measure.Space),
		building: make([]chan struct{}, sys.NumAgents()),
		tables:   make([]atomic.Pointer[SpaceTable], sys.NumAgents()),
	}
}

// System returns the underlying system.
func (p *ProbAssignment) System() *system.System { return p.sys }

// SampleAssignment returns the assignment inducing p.
func (p *ProbAssignment) SampleAssignment() SampleAssignment { return p.sample }

// Name returns the inducing assignment's name.
func (p *ProbAssignment) Name() string { return p.sample.Name() }

// sampleKey returns the sample key of (i, c), if the assignment has one.
func (p *ProbAssignment) sampleKey(i system.AgentID, c system.Point) (string, bool) {
	if keyed, ok := p.sample.(KeyedAssignment); ok {
		return keyed.SampleKey(i, c)
	}
	return "", false
}

// Space returns the induced probability space P_ic. Spaces are cached; for
// KeyedAssignments all points of an information cell share one space object,
// so callers may rely on pointer identity of spaces for their own
// memoization.
func (p *ProbAssignment) Space(i system.AgentID, c system.Point) (*measure.Space, error) {
	key := spaceKey{i: i, c: c}
	if k, ok := p.sampleKey(i, c); ok {
		key = spaceKey{i: i, key: k}
	}
	p.mu.Lock()
	sp, ok := p.spaces[key]
	p.mu.Unlock()
	if ok {
		return sp, nil
	}
	// Built outside the lock; if another goroutine stored the same space
	// meanwhile, its copy wins, so pointer identity still holds.
	sp, err := measure.NewSpace(p.sample.Sample(i, c))
	if err != nil {
		return nil, fmt.Errorf("assignment %s at (%d,%v): %w", p.Name(), i, c, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.spaces[key]; ok {
		return prev, nil
	}
	p.spaces[key] = sp
	return sp, nil
}

// MustSpace is Space but panics on error.
func (p *ProbAssignment) MustSpace(i system.AgentID, c system.Point) *measure.Space {
	sp, err := p.Space(i, c)
	if err != nil {
		panic(err)
	}
	return sp
}

// PrAtLeast reports whether P,c ⊨ Pr_i(φ) ≥ α: the inner measure of S_ic(φ)
// is at least α. (Pr_i is interpreted as inner measure so that the operator
// is defined for non-measurable facts; on measurable facts inner measure is
// the probability.)
func (p *ProbAssignment) PrAtLeast(i system.AgentID, c system.Point, phi system.Fact, alpha rat.Rat) (bool, error) {
	sp, err := p.Space(i, c)
	if err != nil {
		return false, err
	}
	return sp.InnerFact(phi).GreaterEq(alpha), nil
}

// KnowsPrAtLeast reports whether P,c ⊨ K_i^α φ = K_i(Pr_i(φ) ≥ α):
// Pr_i(φ) ≥ α holds at every point of K_i(c). The inner measure is computed
// once per distinct space (see Space's pointer-identity caching).
func (p *ProbAssignment) KnowsPrAtLeast(i system.AgentID, c system.Point, phi system.Fact, alpha rat.Rat) (bool, error) {
	seen := make(map[*measure.Space]bool)
	for d := range p.sys.K(i, c) {
		sp, err := p.Space(i, d)
		if err != nil {
			return false, err
		}
		if seen[sp] {
			continue
		}
		seen[sp] = true
		if !sp.InnerFact(phi).GreaterEq(alpha) {
			return false, nil
		}
	}
	return true, nil
}

// PrInInterval reports whether the inner measure of S_ic(φ) is ≥ α and the
// outer measure ≤ β at the single point c.
func (p *ProbAssignment) PrInInterval(i system.AgentID, c system.Point, phi system.Fact, alpha, beta rat.Rat) (bool, error) {
	sp, err := p.Space(i, c)
	if err != nil {
		return false, err
	}
	return sp.InnerFact(phi).GreaterEq(alpha) && sp.OuterFact(phi).LessEq(beta), nil
}

// KnowsPrInterval reports whether P,c ⊨ K_i^[α,β] φ, the interval operator
// of Theorem 9: K_i((Pr_i(φ) ≥ α) ∧ (Pr_i(¬φ) ≥ 1−β)).
func (p *ProbAssignment) KnowsPrInterval(i system.AgentID, c system.Point, phi system.Fact, alpha, beta rat.Rat) (bool, error) {
	seen := make(map[*measure.Space]bool)
	for d := range p.sys.K(i, c) {
		sp, err := p.Space(i, d)
		if err != nil {
			return false, err
		}
		if seen[sp] {
			continue
		}
		seen[sp] = true
		if !sp.InnerFact(phi).GreaterEq(alpha) || !sp.OuterFact(phi).LessEq(beta) {
			return false, nil
		}
	}
	return true, nil
}

// SharpInterval returns the tightest interval [α,β] such that
// P,c ⊨ K_i^[α,β] φ: α = min over K_i(c) of the inner measures, β = max of
// the outer measures. Measures are computed once per distinct space.
func (p *ProbAssignment) SharpInterval(i system.AgentID, c system.Point, phi system.Fact) (alpha, beta rat.Rat, err error) {
	alpha, beta = rat.One, rat.Zero
	seen := make(map[*measure.Space]bool)
	for d := range p.sys.K(i, c) {
		sp, err := p.Space(i, d)
		if err != nil {
			return rat.Rat{}, rat.Rat{}, err
		}
		if seen[sp] {
			continue
		}
		seen[sp] = true
		alpha = rat.Min(alpha, sp.InnerFact(phi))
		beta = rat.Max(beta, sp.OuterFact(phi))
	}
	return alpha, beta, nil
}

// IsFactMeasurable reports whether φ is measurable with respect to the
// assignment: S_ic(φ) ∈ X_ic for every agent and point (the notion used in
// Proposition 3 and Theorem 7).
func (p *ProbAssignment) IsFactMeasurable(phi system.Fact) (bool, error) {
	for c := range p.sys.Points() {
		for _, i := range p.sys.Agents() {
			sp, err := p.Space(i, c)
			if err != nil {
				return false, err
			}
			if !sp.IsFactMeasurable(phi) {
				return false, nil
			}
		}
	}
	return true, nil
}

package logic

import (
	"errors"
	"fmt"

	"kpa/internal/core"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// Errors returned by the evaluator.
var (
	// ErrUnknownProp is returned when a formula mentions a primitive
	// proposition absent from the evaluator's proposition table.
	ErrUnknownProp = errors.New("logic: unknown proposition")
	// ErrNoProbability is returned when a formula uses Pr_i but the
	// evaluator was built without a probability assignment.
	ErrNoProbability = errors.New("logic: formula uses Pr but no probability assignment given")
	// ErrBadAgent is returned when a formula names an agent outside the
	// system.
	ErrBadAgent = errors.New("logic: agent index out of range")
)

// Evaluator model-checks formulas of L(Φ) over a finite system. Probability
// formulas are interpreted with respect to a probability assignment (the
// induced assignment of a sample-space assignment); different assignments
// give different truths, which is the point of the paper.
//
// Internally the evaluator runs on the system's dense point index
// (system.Index): subformula extensions are DenseSet bitsets combined by
// word-wise arithmetic, primitive propositions are read from a proposition
// table (PropTable: each extension scanned once per table, shared by every
// evaluator over it), K_i uses the index's cached information-cell
// partition (one sweep marks the cells that meet the complement), and Pr_i
// reads the probability assignment's dense space table for the agent
// (core.SpaceTable: run fibers as dense IDs, built once per assignment and
// shared by every evaluator over it), which every later probability query —
// in particular every iteration of the E_G^α/C_G^α fixpoints — reuses. The
// exported API still speaks PointSet; conversion happens only at this
// boundary and is memoized.
//
// An Evaluator memoizes formula extensions (the set of points where each
// subformula holds) by node identity, so reusing formula objects across
// queries is cheap; since the package hash-conses formula constructors,
// re-parsing the same formula text reuses the same nodes and hence hits
// the memo. Primitive propositions are the exception: their extensions
// belong to the proposition table, outside the memo, so they count toward
// no memo cap and survive Reset.
//
// Evaluators are NOT safe for concurrent use: callers that share a system
// across goroutines must give each goroutine its own Evaluator, or check
// evaluators in and out of a pool (see internal/service). A pooled
// evaluator stays warm — its memo survives between checkouts — and can be
// cheaply demoted to cold with Reset when the memo grows past a cap. The
// underlying System and its point index are read-only and may be shared
// freely, and so may the PropTable and the core.ProbAssignment: many
// evaluators over one table or assignment share its extensions or space
// tables, and the first to need one builds it.
type Evaluator struct {
	sys   *system.System
	idx   *system.Index
	prob  *core.ProbAssignment
	props *PropTable

	memo    map[Formula]*system.DenseSet // dense extensions, by node identity
	extMemo map[Formula]system.PointSet  // boundary conversions of memo entries

	// pr memoizes probability-threshold verdicts (see prMemo). Its
	// entries depend only on the immutable system and assignment, so it
	// survives DefineProp; it counts toward MemoWords and Reset drops it,
	// so a pool's memo cap bounds it too.
	pr prMemo

	// cancel is the optional cooperative-cancellation hook installed by
	// SetCancel; nil means evaluation runs to completion.
	cancel func() error

	// par is the parallelism budget (SetParallelism), gate the shared
	// extra-worker token pool (SetGate), metrics the shared activity
	// counters (SetEngineMetrics). par defaults to 1: every kernel stays on
	// the serial path and the engine behaves exactly as before.
	par     int
	gate    *system.Gate
	metrics *EngineMetrics
}

// cancelStride is how many points a linear scan (proposition extension,
// probability table sweep) may visit between cancellation checks. Power of
// two so the hot loops can test id&(cancelStride-1) == 0.
const cancelStride = 4096

// NewEvaluator builds an evaluator for the system. prob may be nil if no
// probability operators will be evaluated; props maps primitive proposition
// names to facts. The evaluator reads the propositions through a private
// PropTable over a copy of props.
func NewEvaluator(sys *system.System, prob *core.ProbAssignment, props map[string]system.Fact) *Evaluator {
	return NewSharedEvaluator(NewPropTable(sys, props), prob)
}

// NewSharedEvaluator builds an evaluator over the system of the
// proposition table, reading the table's extensions and building those it
// needs into it. prob may be nil if no probability operators will be
// evaluated. Many evaluators may share one table and one assignment.
func NewSharedEvaluator(props *PropTable, prob *core.ProbAssignment) *Evaluator {
	return &Evaluator{
		sys:     props.sys,
		idx:     props.sys.Index(),
		prob:    prob,
		props:   props,
		memo:    make(map[Formula]*system.DenseSet),
		extMemo: make(map[Formula]system.PointSet),
		par:     1,
	}
}

// System returns the evaluator's system.
func (e *Evaluator) System() *system.System { return e.sys }

// DefineProp adds (or replaces) a primitive proposition. The evaluator
// moves to a private copy of its proposition table, so the definition is
// never seen by other evaluators sharing the table. Defining a proposition
// invalidates the memo.
func (e *Evaluator) DefineProp(name string, fact system.Fact) {
	e.props = e.props.with(name, fact)
	e.memo = make(map[Formula]*system.DenseSet)
	e.extMemo = make(map[Formula]system.PointSet)
}

// Reset drops the memo tables — the subformula extensions and the Pr
// verdicts — returning the evaluator to its freshly-constructed state.
// Pools call this when a long-lived evaluator's memo exceeds their cap.
// The proposition extensions are kept, since they belong to the
// proposition table, and so are the dense space tables, which belong to
// the shared probability assignment.
func (e *Evaluator) Reset() {
	e.memo = make(map[Formula]*system.DenseSet)
	e.extMemo = make(map[Formula]system.PointSet)
	e.pr = prMemo{}
}

// SetCancel installs a cooperative-cancellation hook. The evaluator calls
// the hook at every subformula boundary, on every fixpoint round of the
// common-knowledge operators, and every cancelStride points of the linear
// scans: proposition extensions, knowledge sweeps, probability-table
// builds and sweeps, and the temporal sweeps of X, U, F and G (these poll
// between runs, once per cancelStride points crossed); the first non-nil
// return aborts the evaluation with exactly that error. The hook
// must be cheap (it runs on hot paths) and must not touch the evaluator.
// With a parallelism budget above 1 (SetParallelism) the sharded kernels
// poll the hook from several goroutines at once, so it must also be safe
// for concurrent calls — reading a closed-channel or atomic signal, as the
// service's context-backed hook does, qualifies.
//
// Aborting is safe: the memo only ever holds completed, correct
// extensions, so a canceled evaluator can be pooled and reused without a
// Reset. SetCancel(nil) removes the hook; pools install a fresh hook per
// checkout (see internal/service) so a stale hook never outlives its
// request. ReferenceEvaluator deliberately has no cancellation — it stays
// the straight-line executable specification.
func (e *Evaluator) SetCancel(cancel func() error) { e.cancel = cancel }

// checkCancel consults the cancellation hook, if any.
func (e *Evaluator) checkCancel() error {
	if e.cancel == nil {
		return nil
	}
	return e.cancel()
}

// MemoLen reports the number of memoized subformula extensions. Primitive
// propositions are not memoized here: their extensions live in the
// proposition table.
func (e *Evaluator) MemoLen() int { return len(e.memo) }

// MemoWords reports the evaluator's memo footprint in 64-bit words: the
// memoized dense extensions plus the Pr verdict memo, so pools can bound a
// pooled evaluator's memory rather than just its entry count. The
// proposition table's extensions are not counted; they are not the
// evaluator's.
func (e *Evaluator) MemoWords() int {
	return len(e.memo)*e.idx.Words() + e.pr.words()
}

// Holds reports whether the formula is true at the point.
func (e *Evaluator) Holds(f Formula, at system.Point) (bool, error) {
	ext, err := e.DenseExtension(f)
	if err != nil {
		return false, err
	}
	return ext.ContainsPoint(at), nil
}

// Valid reports whether the formula holds at every point of the system.
func (e *Evaluator) Valid(f Formula) (bool, error) {
	ext, err := e.DenseExtension(f)
	if err != nil {
		return false, err
	}
	return ext.Len() == e.idx.NumPoints(), nil
}

// CounterExamples returns the points at which the formula fails, in
// deterministic order.
func (e *Evaluator) CounterExamples(f Formula) ([]system.Point, error) {
	ext, err := e.DenseExtension(f)
	if err != nil {
		return nil, err
	}
	return ext.Complement().PointSet().Sorted(), nil
}

// Fact converts a formula to a system.Fact (its extension as a predicate).
func (e *Evaluator) Fact(f Formula) (system.Fact, error) {
	ext, err := e.Extension(f)
	if err != nil {
		return nil, err
	}
	return system.FactOfSet(f.String(), ext), nil
}

// Extension returns the set of points where the formula holds. The returned
// set is shared with the memo and must not be modified.
func (e *Evaluator) Extension(f Formula) (system.PointSet, error) {
	if ext, ok := e.extMemo[f]; ok {
		return ext, nil
	}
	d, err := e.DenseExtension(f)
	if err != nil {
		return nil, err
	}
	ext := d.PointSet()
	e.extMemo[f] = ext
	return ext, nil
}

// DenseExtension returns the extension of the formula as a dense bitset
// over the system's point index. The returned set is shared with the memo
// or the proposition table and must not be modified.
func (e *Evaluator) DenseExtension(f Formula) (*system.DenseSet, error) {
	if ext, ok := e.memo[f]; ok {
		return ext, nil
	}
	ext, err := e.compute(f)
	if err != nil {
		return nil, err
	}
	if _, atom := f.(*PropFormula); !atom {
		e.memo[f] = ext
	}
	return ext, nil
}

// checkAgentIn validates an agent index against a system; shared between
// the dense and reference evaluators.
func checkAgentIn(sys *system.System, i system.AgentID) error {
	if int(i) < 0 || int(i) >= sys.NumAgents() {
		return fmt.Errorf("%w: p%d in a %d-agent system", ErrBadAgent, i+1, sys.NumAgents())
	}
	return nil
}

// checkGroupIn validates a group of agent indices against a system.
func checkGroupIn(sys *system.System, g []system.AgentID) error {
	if len(g) == 0 {
		return fmt.Errorf("logic: empty agent group")
	}
	for _, i := range g {
		if err := checkAgentIn(sys, i); err != nil {
			return err
		}
	}
	return nil
}

func (e *Evaluator) compute(f Formula) (*system.DenseSet, error) {
	// Every subformula computation is a cancellation point, so even a
	// deeply-nested formula whose individual operators are cheap aborts
	// between levels.
	if err := e.checkCancel(); err != nil {
		return nil, err
	}
	idx := e.idx
	switch f := f.(type) {
	case *PropFormula:
		// A published extension costs one lookup. Otherwise this request
		// builds it into the table: with workers > 1 the fact's Holds is
		// called from several goroutines, which SetParallelism documents
		// facts must tolerate.
		if ext := e.props.ExtensionIfBuilt(f.Name); ext != nil {
			return ext, nil
		}
		workers, release := e.parWorkers(idx.NumPoints())
		defer release()
		ps, stop := e.stopFn()
		ext, ok, err := e.props.extension(f.Name, workers, stop)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, ps.Err()
		}
		return ext, nil

	case *BoolFormula:
		if f.Value {
			return idx.FullDense(), nil
		}
		return idx.NewDense(), nil

	case *NotFormula:
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.complementPar(sub), nil

	case *AndFormula:
		l, err := e.DenseExtension(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.DenseExtension(f.Right)
		if err != nil {
			return nil, err
		}
		return e.intersectPar(l, r), nil

	case *OrFormula:
		l, err := e.DenseExtension(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.DenseExtension(f.Right)
		if err != nil {
			return nil, err
		}
		return e.unionPar(l, r), nil

	case *ImpliesFormula:
		l, err := e.DenseExtension(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.DenseExtension(f.Right)
		if err != nil {
			return nil, err
		}
		return e.unionPar(e.complementPar(l), r), nil

	case *NextFormula:
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		out := idx.NewDense()
		// Runs are contiguous ID ranges, so "the next point on the run"
		// is ID+1.
		poll := e.runPoll()
		idx.EachRun(func(_ *system.Tree, _ int, start, n int) {
			if poll.skip(start) {
				return
			}
			for k := 0; k < n-1; k++ {
				if sub.Contains(start + k + 1) {
					out.Add(start + k)
				}
			}
		})
		if poll.err != nil {
			return nil, poll.err
		}
		return out, nil

	case *UntilFormula:
		return e.computeUntil(f.Left, f.Right)

	case *EventuallyFormula:
		return e.computeUntil(True, f.Sub)

	case *AlwaysFormula:
		// □φ = ¬◇¬φ. Not(f.Sub) is hash-consed, so the inner extension
		// memoizes across queries; only the final complement is fresh.
		ev, err := e.computeUntil(True, Not(f.Sub))
		if err != nil {
			return nil, err
		}
		return e.complementPar(ev), nil

	case *KnowFormula:
		if err := checkAgentIn(e.sys, f.Agent); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.knowExtension(f.Agent, sub)

	case *PrGeqFormula:
		if err := checkAgentIn(e.sys, f.Agent); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.prExtension(f.Agent, sub, f.Alpha, true)

	case *PrLeqFormula:
		if err := checkAgentIn(e.sys, f.Agent); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.prExtension(f.Agent, sub, f.Beta, false)

	case *EveryoneFormula:
		if err := checkGroupIn(e.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.everyoneExtension(f.Group, sub)

	case *CommonFormula:
		if err := checkGroupIn(e.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		// Greatest fixed point of X = E_G(φ ∧ X), from X = all points.
		// Each round's knowledge sweeps and set combines are sharded
		// independently, drawing workers from the gate as they go.
		x := idx.FullDense()
		for {
			if err := e.checkCancel(); err != nil {
				return nil, err
			}
			if e.metrics != nil {
				e.metrics.ShardRounds.Add(1)
			}
			next, err := e.everyoneExtension(f.Group, e.intersectPar(sub, x))
			if err != nil {
				return nil, err
			}
			if next.Equal(x) {
				return x, nil
			}
			x = next
		}

	case *EveryonePrFormula:
		if err := checkGroupIn(e.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.everyonePrExtension(f.Group, sub, f.Alpha)

	case *CommonPrFormula:
		if err := checkGroupIn(e.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		// Greatest fixed point of X = E_G^α(φ ∧ X).
		x := idx.FullDense()
		for {
			if err := e.checkCancel(); err != nil {
				return nil, err
			}
			if e.metrics != nil {
				e.metrics.ShardRounds.Add(1)
			}
			next, err := e.everyonePrExtension(f.Group, e.intersectPar(sub, x), f.Alpha)
			if err != nil {
				return nil, err
			}
			if next.Equal(x) {
				return x, nil
			}
			x = next
		}

	default:
		return nil, fmt.Errorf("logic: unknown formula type %T", f)
	}
}

// computeUntil computes the extension of φ U ψ over finite runs: ψ holds at
// some point l ≥ k of the run and φ holds at all points in [k, l). Each run
// is one backward sweep over its contiguous ID range.
func (e *Evaluator) computeUntil(phi, psi Formula) (*system.DenseSet, error) {
	l, err := e.DenseExtension(phi)
	if err != nil {
		return nil, err
	}
	r, err := e.DenseExtension(psi)
	if err != nil {
		return nil, err
	}
	out := e.idx.NewDense()
	poll := e.runPoll()
	e.idx.EachRun(func(_ *system.Tree, _ int, start, n int) {
		if poll.skip(start) {
			return
		}
		// until holds at k iff ψ at k, or (φ at k and until at k+1).
		holds := false
		for k := n - 1; k >= 0; k-- {
			id := start + k
			switch {
			case r.Contains(id):
				holds = true
			case l.Contains(id) && holds:
				// keep holds = true
			default:
				holds = false
			}
			if holds {
				out.Add(id)
			}
		}
	})
	if poll.err != nil {
		return nil, poll.err
	}
	return out, nil
}

// runPoll polls the cancellation hook for a serial sweep over the runs in
// dense-ID order (Index.EachRun). The sweep calls skip with each run's
// first dense ID before visiting the run: skip consults the hook each time
// the sweep has crossed another cancelStride points, and once the hook has
// failed it returns true, so no further run is visited, and err holds the
// hook's error.
type runPoll struct {
	e    *Evaluator
	next int
	err  error
}

func (e *Evaluator) runPoll() *runPoll { return &runPoll{e: e, next: cancelStride} }

func (p *runPoll) skip(start int) bool {
	if p.err == nil && start >= p.next {
		p.next = start - start%cancelStride + cancelStride
		p.err = p.e.checkCancel()
	}
	return p.err != nil
}

// intersectPar, unionPar, complementPar run one set-algebra combine on the
// evaluator's budget: a region is opened for the duration of the sweep, and
// the *Par variants themselves fall back to serial below parMinWords, so
// small systems take the exact pre-parallel path.
func (e *Evaluator) intersectPar(a, b *system.DenseSet) *system.DenseSet {
	workers, release := e.parWorkers(e.idx.NumPoints())
	defer release()
	return a.IntersectPar(b, workers)
}

func (e *Evaluator) unionPar(a, b *system.DenseSet) *system.DenseSet {
	workers, release := e.parWorkers(e.idx.NumPoints())
	defer release()
	return a.UnionPar(b, workers)
}

func (e *Evaluator) complementPar(a *system.DenseSet) *system.DenseSet {
	workers, release := e.parWorkers(e.idx.NumPoints())
	defer release()
	return a.ComplementPar(workers)
}

// knowExtension computes {c : K_i(c) ⊆ ext} through the index's cell-
// partition kernel: one sweep over the points outside ext marking their
// cells bad, then one sweep over the dense IDs writing the bits of points
// in good cells, linear in points plus cells. Both phases shard across the
// evaluator's workers (system.CellPartition.KnowExtension); the partition
// itself is cached on the system's index and its first construction
// shards too.
func (e *Evaluator) knowExtension(i system.AgentID, ext *system.DenseSet) (*system.DenseSet, error) {
	workers, release := e.parWorkers(e.idx.NumPoints())
	defer release()
	cells := e.idx.CellsPar(i, workers)
	ps, stop := e.stopFn()
	out := cells.KnowExtension(ext, workers, stop)
	if err := ps.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Evaluator) everyoneExtension(group []system.AgentID, ext *system.DenseSet) (*system.DenseSet, error) {
	out := e.idx.FullDense()
	for _, i := range group {
		k, err := e.knowExtension(i, ext)
		if err != nil {
			return nil, err
		}
		out.IntersectWith(k)
	}
	return out, nil
}

func (e *Evaluator) everyonePrExtension(group []system.AgentID, ext *system.DenseSet, alpha rat.Rat) (*system.DenseSet, error) {
	out := e.idx.FullDense()
	for _, i := range group {
		pr, err := e.prExtension(i, ext, alpha, true)
		if err != nil {
			return nil, err
		}
		k, err := e.knowExtension(i, pr)
		if err != nil {
			return nil, err
		}
		out.IntersectWith(k)
	}
	return out, nil
}

package service

import (
	"sync"

	"kpa/internal/core"
	"kpa/internal/logic"
	"kpa/internal/system"
)

// worker is the unit an evalPool checks out to a goroutine: a non-thread-safe
// logic.Evaluator over the pool's shared core.ProbAssignment, plus a parse
// cache mapping canonical formula text back to the Formula node the
// evaluator's memo is keyed by. Reusing the node across checkouts is what
// keeps a warm worker's memo effective.
type worker struct {
	eval   *logic.Evaluator
	parsed map[string]logic.Formula

	// poisoned is set when an evaluation on this worker panicked: the
	// evaluator's internal state (memo maps mid-insert) can no longer be
	// trusted, so put discards the worker instead of lending it to the
	// next request. Only the goroutine holding the checkout touches the
	// flag.
	poisoned bool
}

// formula returns the worker's node for the canonical formula text, parsing
// on first use.
func (w *worker) formula(canonical string) (logic.Formula, error) {
	if f, ok := w.parsed[canonical]; ok {
		return f, nil
	}
	f, err := logic.Parse(canonical)
	if err != nil {
		return nil, err
	}
	w.parsed[canonical] = f
	return f, nil
}

// evalPool lends warm evaluators to request goroutines for one
// (system, probability assignment) pair. logic.Evaluator is not safe for
// concurrent use, so each checkout owns its worker exclusively; on return
// the worker keeps its memo (warm) unless the memo grew past memoCap, in
// which case it is Reset. The pool creates workers on demand and keeps at
// most maxIdle of them between requests.
//
// Every worker of the pool evaluates over one core.ProbAssignment and over
// the session's logic.PropTable, which it shares with the session's other
// pools; both are safe for concurrent use. Each agent's dense space table
// and each proposition's extension is built once, by the first checkout
// that needs it (under the engine budget and that request's cancellation),
// and then read by all of them. A canceled or panicking build publishes
// nothing, so the next request builds it afresh. The extensions live
// outside the workers' memos, so they survive a Reset and count toward no
// memoCap.
type evalPool struct {
	sys   *system.System
	prob  *core.ProbAssignment
	props *logic.PropTable
	eng   *engine

	memoCap int
	maxIdle int

	mu        sync.Mutex
	idle      []*worker // guarded by mu
	created   uint64    // guarded by mu; cold checkouts: a new worker was built
	reused    uint64    // guarded by mu; warm checkouts: an idle worker was handed out
	resets    uint64    // guarded by mu; workers whose memo was dropped on return
	discarded uint64    // guarded by mu; poisoned workers dropped instead of repooled
}

func newEvalPool(sys *system.System, sample core.SampleAssignment, props *logic.PropTable, memoCap, maxIdle int, eng *engine) *evalPool {
	return &evalPool{
		sys:     sys,
		prob:    core.NewProbAssignment(sys, sample),
		props:   props,
		eng:     eng,
		memoCap: memoCap,
		maxIdle: maxIdle,
	}
}

// get checks a worker out; the caller must return it with put.
func (p *evalPool) get() *worker {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.reused++
		p.mu.Unlock()
		return w
	}
	p.created++
	p.mu.Unlock()
	// Build outside the lock: there is no reason to serialize concurrent
	// cold checkouts. The index build comes first so the session's one-time
	// point index is sharded under the engine budget instead of built
	// serially inside NewEvaluator.
	if p.eng != nil {
		p.eng.buildIndex(p.sys)
	}
	ev := logic.NewSharedEvaluator(p.props, p.prob)
	if p.eng != nil {
		p.eng.wire(ev)
	}
	return &worker{
		eval:   ev,
		parsed: make(map[string]logic.Formula),
	}
}

// put returns a worker to the pool, resetting it if its memo outgrew the
// cap and discarding it if the pool is already full of idle workers. The cap
// is measured in bitset words (MemoWords), so the budget tracks the real
// retained footprint: memos over big systems cost proportionally more than
// memos over small ones.
//
// A poisoned worker — one whose evaluation panicked — is never repooled:
// its half-mutated memo and tables cannot be trusted, so it is counted and
// dropped for the garbage collector, and the next checkout builds a clean
// replacement.
func (p *evalPool) put(w *worker) {
	if w.poisoned {
		p.mu.Lock()
		p.discarded++
		p.mu.Unlock()
		return
	}
	if w.eval.MemoWords() > p.memoCap {
		w.eval.Reset()
		w.parsed = make(map[string]logic.Formula)
		p.mu.Lock()
		p.resets++
		p.mu.Unlock()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, w)
	}
}

// exportMemo exports the memo of one idle worker in durable form (empty
// when the pool has no idle worker — nothing warm to persist). The
// worker is checked out for the duration of the export, so concurrent
// requests are never blocked behind the bit copies, and the pool's
// created/reused counters are untouched: an export is not a checkout a
// client observed.
func (p *evalPool) exportMemo() []logic.MemoExport {
	p.mu.Lock()
	n := len(p.idle)
	if n == 0 {
		p.mu.Unlock()
		return nil
	}
	w := p.idle[n-1]
	p.idle = p.idle[:n-1]
	p.mu.Unlock()
	out := w.eval.ExportMemo()
	p.mu.Lock()
	if len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, w)
	}
	p.mu.Unlock()
	return out
}

// seedWorker builds one worker, imports previously exported memo
// entries into it, and parks it idle, so the first post-restore request
// checks out an already-warm evaluator. Returns how many entries were
// imported; a malformed entry aborts the import, and the partially
// warmed worker is still pooled — every imported entry was individually
// validated.
func (p *evalPool) seedWorker(entries []logic.MemoExport) (int, error) {
	w := p.get()
	n, err := w.eval.ImportMemo(entries)
	p.put(w)
	return n, err
}

// PoolStats is a point-in-time snapshot of one evaluator pool's counters.
type PoolStats struct {
	System     string `json:"system"`
	Assignment string `json:"assignment"`
	Idle       int    `json:"idle"`
	Created    uint64 `json:"created"`
	Reused     uint64 `json:"reused"`
	Resets     uint64 `json:"resets"`
	Discarded  uint64 `json:"discarded"`
}

func (p *evalPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Assignment: p.prob.Name(),
		Idle:       len(p.idle),
		Created:    p.created,
		Reused:     p.reused,
		Resets:     p.resets,
		Discarded:  p.discarded,
	}
}

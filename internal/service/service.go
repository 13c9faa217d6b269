// Package service is the concurrent query-serving layer over the
// Halpern–Tuttle model-checking stack: it loads systems into a session
// store (registry names plus uploaded internal/encode documents, deduped by
// canonical content hash), lends warm non-thread-safe logic.Evaluators out
// of per-(system, assignment) pools, and memoizes verdicts in a bounded LRU
// cache keyed by (system hash, assignment, canonical formula). cmd/kpad
// exposes it over HTTP.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kpa/internal/logic"
)

// Config tunes a Service. The zero value is usable: each field falls back
// to the listed default.
type Config struct {
	// CacheSize bounds the verdict cache (entries). Default 4096.
	CacheSize int
	// MaxIdle bounds the idle evaluators kept per (system, assignment)
	// pool. Default 8.
	MaxIdle int
	// MemoCap is the memoized-extension budget, in 64-bit bitset words
	// (formulas memoized × words per extension), above which a returned
	// evaluator's memo is dropped. Default 4096. Proposition extensions
	// are outside the cap: they belong to the session's proposition
	// table, shared by all its pools, and survive the drop.
	MemoCap int
	// MaxCounterexamples bounds the counterexamples reported per verdict.
	// Default 20.
	MaxCounterexamples int
	// MaxBatch bounds the formulas accepted by one Batch call. Default 256.
	MaxBatch int
	// BatchParallelism bounds the evaluator goroutines one Batch call fans
	// out to. Default 8.
	BatchParallelism int
	// Parallelism is the dense engine's parallelism budget: the maximum
	// number of goroutines (the caller included) one evaluation's sharded
	// kernels may fan out to. The budget composes with admission control
	// through a shared token gate: across every in-flight evaluation the
	// engine spawns at most Parallelism−1 extra goroutines in total — NOT
	// Parallelism × MaxInFlight — and an evaluation that finds the gate
	// drained simply runs its kernels serially. Default 1 (fully serial
	// engine, the pre-parallel behavior).
	Parallelism int
	// MaxInFlight bounds the evaluations running concurrently across the
	// whole service (admission control); cache hits bypass the bound.
	// Default 16.
	MaxInFlight int
	// QueueWait bounds how long a cache-missing request may wait for an
	// evaluation slot before it is shed with a KindOverloaded error.
	// Default 250ms.
	QueueWait time.Duration
	// RetryAfter is the retry hint attached to shed requests (kpad turns
	// it into a Retry-After header). Default 1s.
	RetryAfter time.Duration
	// SearchWorkers bounds the branch-and-bound workers per search job
	// (the job's first worker holds a blocking evaluation slot; the rest
	// are taken opportunistically). Default 4.
	SearchWorkers int
	// MaxSearchJobs bounds concurrently running search jobs. Default 4.
	MaxSearchJobs int
	// SearchCheckpointEvery is the default checkpoint cadence in expanded
	// nodes. Default 4096.
	SearchCheckpointEvery uint64
	// SearchCheckpointDir, when set, persists search-job checkpoints as
	// <dir>/<jobID>.json so a restarted daemon can resume them. Empty
	// disables persistence (in-memory resume of canceled jobs still works).
	SearchCheckpointDir string
	// SnapshotDir, when set, makes sessions durable: a background writer
	// persists each loaded system's snapshot (identity, cell partitions,
	// warm memos, cached verdicts) as <dir>/<canon-hash>.kpasnap, and
	// RestoreSnapshots rebuilds them at boot. Empty disables durability.
	// Services with a SnapshotDir own a background goroutine — stop it
	// with Close.
	SnapshotDir string
	// SnapshotEvery is the background snapshot cadence. Default 30s.
	SnapshotEvery time.Duration
	// Seams are optional fault-injection hooks for resilience tests; nil
	// in production. See Seams and internal/faultinject.
	Seams *Seams
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.MaxIdle <= 0 {
		c.MaxIdle = 8
	}
	if c.MemoCap <= 0 {
		c.MemoCap = 4096
	}
	if c.MaxCounterexamples <= 0 {
		c.MaxCounterexamples = 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.BatchParallelism <= 0 {
		c.BatchParallelism = 8
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 250 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SearchWorkers <= 0 {
		c.SearchWorkers = 4
	}
	if c.MaxSearchJobs <= 0 {
		c.MaxSearchJobs = 4
	}
	if c.SearchCheckpointEvery == 0 {
		c.SearchCheckpointEvery = 4096
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 30 * time.Second
	}
	return c
}

// Service answers model-checking queries concurrently. All methods are safe
// for concurrent use.
//
// The serving path is defended against its own adversaries the way the
// paper's adversary picks worst-case nondeterminism: a bounded admission
// semaphore sheds floods (KindOverloaded) instead of queueing them
// unboundedly, a singleflight group collapses stampedes of identical cache
// misses onto one evaluation, evaluations whose waiters have all gone are
// cooperatively canceled (logic.Evaluator.SetCancel) instead of burning
// CPU to completion, and evaluator panics are contained to the request,
// poisoning only the one worker. docs/RESILIENCE.md states the contract.
type Service struct {
	cfg    Config
	store  *store
	cache  *verdictCache
	flight *flightGroup
	engine *engine

	// sem is the global evaluation semaphore: one slot per concurrently
	// running evaluation. Cache hits never touch it.
	sem chan struct{}

	checks        atomic.Uint64
	batches       atomic.Uint64
	batchFormulas atomic.Uint64
	evals         atomic.Uint64
	evalNanos     atomic.Uint64

	inflight atomic.Int64  // evaluations currently holding a slot
	queued   atomic.Int64  // evaluations currently waiting for a slot
	sheds    atomic.Uint64 // requests rejected by admission control
	panics   atomic.Uint64 // evaluator panics contained
	cancels  atomic.Uint64 // evaluations halted by cooperative cancellation
	dedups   atomic.Uint64 // cache misses collapsed onto an in-flight call

	searchMu    sync.Mutex
	searches    map[string]*searchJob // guarded by searchMu
	searchSeq   int                   // guarded by searchMu
	searchCkpts atomic.Uint64         // checkpoint files durably written

	// snap is the durability layer (nil without Config.SnapshotDir);
	// closeOnce makes Close idempotent.
	snap      *snapshotter
	closeOnce sync.Once
}

// New builds a Service with the config (zero value for defaults). With
// Config.SnapshotDir set, the service owns a background snapshot writer;
// the caller must eventually stop it with Close.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		store:    newStore(cfg.Seams),
		cache:    newVerdictCache(cfg.CacheSize),
		flight:   newFlightGroup(),
		engine:   newEngine(cfg.Parallelism),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		searches: make(map[string]*searchJob),
	}
	if cfg.SnapshotDir != "" {
		s.snap = newSnapshotter(cfg.SnapshotDir, cfg.SnapshotEvery)
		go s.snapshotLoop()
	}
	return s
}

// CheckRequest asks whether a formula is valid (holds at every point) in a
// system under a probability assignment.
type CheckRequest struct {
	// System is a registry name (loaded on first use) or an upload name.
	System string `json:"system"`
	// Assign is the probability-assignment name (post, fut, prior, opp:J).
	// Empty means post.
	Assign string `json:"assign,omitempty"`
	// Formula is the formula in the ASCII syntax of logic.Parse.
	Formula string `json:"formula"`
}

// Verdict is the result of checking one formula.
type Verdict struct {
	// System and Hash identify the checked system; Hash is the canonical
	// content hash, so clients can tell aliased names apart.
	System string `json:"system"`
	Hash   string `json:"hash"`
	// Assignment is the canonical name of the probability assignment.
	Assignment string `json:"assignment"`
	// Formula is the canonical rendering of the checked formula.
	Formula string `json:"formula"`
	// Valid reports whether the formula holds at every point.
	Valid bool `json:"valid"`
	// HoldsAt and Points count the points where the formula holds and the
	// system's points.
	HoldsAt int `json:"holdsAt"`
	Points  int `json:"points"`
	// CounterExamples lists (a bounded number of) points where the formula
	// fails; CounterTotal is the unbounded count.
	CounterExamples []string `json:"counterExamples,omitempty"`
	CounterTotal    int      `json:"counterTotal,omitempty"`
	// Cached reports whether this verdict was served from the cache.
	Cached bool `json:"cached"`
}

// Load makes sure the named registry system is loaded, returning its info.
func (s *Service) Load(name string) (SystemInfo, error) {
	sess, err := s.store.get(name)
	if err != nil {
		return SystemInfo{}, err
	}
	return sess.info(name), nil
}

// Upload registers a JSON-encoded system (an internal/encode document)
// under the name. Identical tree content dedupes onto the existing session
// — including its proposition table: a document whose trees match a loaded
// system but whose props differ keeps the loaded system's props.
func (s *Service) Upload(name string, doc []byte) (SystemInfo, error) {
	sess, err := s.store.upload(name, doc)
	if err != nil {
		return SystemInfo{}, err
	}
	return sess.info(name), nil
}

// Systems lists the loaded systems by name.
func (s *Service) Systems() []SystemInfo { return s.store.list() }

// Check evaluates one formula, consulting the verdict cache first. The
// context bounds the wait: on expiry Check returns a KindTimeout error and
// — once every other waiter on the same evaluation has also gone — the
// evaluation itself is cooperatively canceled instead of running to
// completion in the background. Concurrent identical cache misses share
// one evaluation, and admission control sheds work (KindOverloaded) when
// every evaluation slot stays busy for the whole queue wait.
func (s *Service) Check(ctx context.Context, req CheckRequest) (Verdict, error) {
	s.checks.Add(1)
	return s.check(ctx, req)
}

func (s *Service) check(ctx context.Context, req CheckRequest) (Verdict, error) {
	sess, err := s.store.get(req.System)
	if err != nil {
		return Verdict{}, err
	}
	f, err := logic.Parse(req.Formula)
	if err != nil {
		return Verdict{}, badRequest(err)
	}
	canonical := f.String()
	assign := req.Assign
	if assign == "" {
		assign = "post"
	}
	pool, err := sess.pool(assign, s.cfg, s.engine)
	if err != nil {
		return Verdict{}, err
	}
	key := cacheKey{sysHash: sess.hash, assign: pool.prob.Name(), formula: canonical}
	// Fast path: verdict-cache hits bypass admission control and
	// singleflight entirely.
	if v, ok := s.cache.get(key); ok {
		v.System = req.System
		v.Cached = true
		return v, nil
	}

	if err := ctx.Err(); err != nil {
		return Verdict{}, ctxError(err)
	}
	c, leader := s.flight.join(key)
	defer s.flight.leave(key, c)
	if leader {
		go s.runEval(c, key, pool, sess, canonical)
	} else {
		s.dedups.Add(1)
	}
	select {
	case <-c.done:
		if c.err != nil {
			return Verdict{}, c.err
		}
		v := c.v
		v.System = req.System
		v.Cached = !leader // followers were served someone else's evaluation
		return v, nil
	case <-ctx.Done():
		return Verdict{}, ctxError(ctx.Err())
	}
}

// runEval is the evaluation goroutine behind one flight call: it queues
// for an admission slot, checks a worker out, evaluates, caches a
// successful verdict, and publishes the result to every waiter. It is
// detached from any single request — it stops early only when all waiters
// abandon the call (admission select, evaluator cancellation hook).
func (s *Service) runEval(c *flightCall, key cacheKey, pool *evalPool, sess *session, canonical string) {
	v, err := s.leaderEval(c, pool, sess, canonical, key.assign)
	if err == nil && !c.canceled() {
		s.cache.put(key, v)
	}
	s.flight.finish(key, c, v, err)
}

// leaderEval runs one admission-controlled, panic-contained evaluation.
func (s *Service) leaderEval(c *flightCall, pool *evalPool, sess *session, canonical, assignName string) (v Verdict, err error) {
	// Containment for faults outside the worker region (an injected
	// pool-seam panic, an admission bug): no panic on this goroutine may
	// kill the daemon.
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			err = &Error{Kind: KindPanic, Msg: fmt.Sprintf("evaluation panicked: %v", r)}
		}
	}()
	if err := s.admitEval(c); err != nil {
		return Verdict{}, err
	}
	defer func() { <-s.sem }()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	if err := s.cfg.Seams.poolGet(); err != nil {
		return Verdict{}, err
	}
	w := pool.get()
	defer pool.put(w)
	// The inner recovery runs before the deferred put, so a panicking
	// evaluation poisons the worker and put discards it instead of handing
	// it to the next request.
	defer func() {
		if r := recover(); r != nil {
			w.poisoned = true
			s.panics.Add(1)
			err = &Error{Kind: KindPanic, Msg: fmt.Sprintf("evaluator panicked checking %q: %v", canonical, r)}
		}
	}()
	w.eval.SetCancel(func() error {
		if c.canceled() {
			return context.Canceled
		}
		return nil
	})
	defer w.eval.SetCancel(nil)
	if err := s.cfg.Seams.eval(canonical); err != nil {
		return Verdict{}, err
	}
	start := time.Now()
	v, err = s.evaluate(w, sess, canonical, assignName)
	s.evals.Add(1)
	s.evalNanos.Add(uint64(time.Since(start).Nanoseconds()))
	if err != nil {
		return Verdict{}, s.classifyEvalErr(err)
	}
	return v, nil
}

// admitEval acquires an evaluation slot: immediately when one is free,
// otherwise by queueing for at most QueueWait. The queue is deadline-aware
// through the flight call — when every waiter's context has expired the
// wait stops with KindCanceled instead of holding the queue position for
// work nobody wants.
func (s *Service) admitEval(c *flightCall) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-c.abandoned:
		s.cancels.Add(1)
		return &Error{Kind: KindCanceled, Msg: "service: evaluation abandoned while queued"}
	case <-t.C:
		s.sheds.Add(1)
		return &Error{
			Kind:       KindOverloaded,
			Msg:        fmt.Sprintf("service: all %d evaluation slots busy for %v", s.cfg.MaxInFlight, s.cfg.QueueWait),
			RetryAfter: s.cfg.RetryAfter,
		}
	}
}

// classifyEvalErr types an evaluator failure: formula-level mistakes are
// the client's (KindBadRequest), cooperative cancellation keeps its
// context kind, anything else stays internal.
func (s *Service) classifyEvalErr(err error) error {
	switch {
	case errors.Is(err, logic.ErrUnknownProp),
		errors.Is(err, logic.ErrBadAgent),
		errors.Is(err, logic.ErrNoProbability):
		return badRequest(err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.cancels.Add(1)
		return ctxError(err)
	}
	var se *Error
	if errors.As(err, &se) {
		return err
	}
	return &Error{Kind: KindInternal, Err: err}
}

// evaluate runs one formula on a checked-out worker. The verdict it returns
// carries the session's canonical name; Check overwrites System with the
// requested alias.
func (s *Service) evaluate(w *worker, sess *session, canonical, assignName string) (Verdict, error) {
	f, err := w.formula(canonical)
	if err != nil {
		return Verdict{}, err
	}
	// The whole path stays dense: extension, counts and counterexamples
	// come from the bitset, so a million-point system never materializes
	// its map-based point set just to serve a verdict.
	ext, err := w.eval.DenseExtension(f)
	if err != nil {
		return Verdict{}, err
	}
	total := sess.sys.NumPoints()
	holds := ext.Len()
	v := Verdict{
		System:     sess.name,
		Hash:       sess.hash,
		Assignment: assignName,
		Formula:    canonical,
		Valid:      holds == total,
		HoldsAt:    holds,
		Points:     total,
	}
	if !v.Valid {
		v.CounterTotal = total - holds
		// FirstN walks only as far as the bound, and the dense-ID order is
		// the same (tree, run, time) order Sorted produced.
		for _, p := range ext.Complement().FirstN(s.cfg.MaxCounterexamples) {
			v.CounterExamples = append(v.CounterExamples, fmt.Sprintf("%v %s", p, p.State()))
		}
	}
	return v, nil
}

// BatchRequest checks many formulas against one system and assignment.
type BatchRequest struct {
	System   string   `json:"system"`
	Assign   string   `json:"assign,omitempty"`
	Formulas []string `json:"formulas"`
}

// BatchItem is the per-formula outcome of a batch: either a verdict or an
// error message.
type BatchItem struct {
	Formula string   `json:"formula"`
	Verdict *Verdict `json:"verdict,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// Batch fans the formulas out across pooled evaluators and joins the
// results in input order. Formula-level failures (parse errors, unknown
// propositions) are reported per item; system- or assignment-level failures
// fail the whole batch.
func (s *Service) Batch(ctx context.Context, req BatchRequest) ([]BatchItem, error) {
	s.batches.Add(1)
	s.batchFormulas.Add(uint64(len(req.Formulas)))
	if len(req.Formulas) == 0 {
		return nil, &Error{Kind: KindBadRequest, Msg: "service: batch has no formulas"}
	}
	if len(req.Formulas) > s.cfg.MaxBatch {
		return nil, &Error{Kind: KindBadRequest,
			Msg: fmt.Sprintf("service: batch of %d formulas exceeds limit %d", len(req.Formulas), s.cfg.MaxBatch)}
	}
	// Resolve the system and assignment once so a bad request fails whole.
	sess, err := s.store.get(req.System)
	if err != nil {
		return nil, err
	}
	if _, err := sess.pool(orPost(req.Assign), s.cfg, s.engine); err != nil {
		return nil, err
	}

	items := make([]BatchItem, len(req.Formulas))
	sem := make(chan struct{}, s.cfg.BatchParallelism)
	var wg sync.WaitGroup
	for i, formula := range req.Formulas {
		wg.Add(1)
		go func(i int, formula string) {
			defer wg.Done()
			items[i].Formula = formula
			// Acquire the fan-out slot or give up with the context: a
			// timed-out batch must stop launching work, not queue every
			// remaining formula behind a dead deadline.
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				items[i].Error = ctxError(ctx.Err()).Error()
				return
			}
			defer func() { <-sem }()
			v, err := s.check(ctx, CheckRequest{System: req.System, Assign: req.Assign, Formula: formula})
			if err != nil {
				items[i].Error = err.Error()
				return
			}
			items[i].Verdict = &v
		}(i, formula)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, ctxError(err)
	}
	return items, nil
}

func orPost(assign string) string {
	if assign == "" {
		return "post"
	}
	return assign
}

// EvalStats aggregates wall-clock time spent inside evaluator calls (cache
// misses only — cache hits never reach an evaluator).
type EvalStats struct {
	// Evals counts completed evaluator calls.
	Evals uint64 `json:"evals"`
	// TotalNanos is the summed wall-clock time of those calls.
	TotalNanos uint64 `json:"totalNanos"`
	// AvgNanos is TotalNanos / Evals (0 when no evaluations have run).
	AvgNanos uint64 `json:"avgNanos"`
}

// ResilienceStats snapshots the serving layer's degraded-mode counters:
// how much work is in flight or queued, and how often the service shed,
// contained, canceled or collapsed work instead of doing it.
type ResilienceStats struct {
	// InFlight is the number of evaluations currently holding a slot.
	InFlight int64 `json:"inFlight"`
	// Queued is the number of evaluations currently waiting for a slot.
	Queued int64 `json:"queued"`
	// Sheds counts requests rejected by admission control (KindOverloaded).
	Sheds uint64 `json:"sheds"`
	// Panics counts evaluator panics contained into KindPanic errors.
	Panics uint64 `json:"panics"`
	// Cancels counts evaluations halted early by cooperative cancellation.
	Cancels uint64 `json:"cancels"`
	// Dedups counts cache misses collapsed onto an in-flight identical
	// evaluation by singleflight.
	Dedups uint64 `json:"dedups"`
	// Discards counts poisoned workers dropped instead of repooled.
	Discards uint64 `json:"discards"`
}

// Stats is a point-in-time snapshot of the service's counters.
type Stats struct {
	Systems       int             `json:"systems"`
	Checks        uint64          `json:"checks"`
	Batches       uint64          `json:"batches"`
	BatchFormulas uint64          `json:"batchFormulas"`
	Eval          EvalStats       `json:"eval"`
	Cache         CacheStats      `json:"cache"`
	Engine        EngineStats     `json:"engine"`
	Resilience    ResilienceStats `json:"resilience"`
	Search        SearchStats     `json:"search"`
	Snapshot      SnapshotStats   `json:"snapshot"`
	Pools         []PoolStats     `json:"pools"`
}

// Stats snapshots the cache, pool and request counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Checks:        s.checks.Load(),
		Batches:       s.batches.Load(),
		BatchFormulas: s.batchFormulas.Load(),
		Eval: EvalStats{
			Evals:      s.evals.Load(),
			TotalNanos: s.evalNanos.Load(),
		},
		Cache:  s.cache.stats(),
		Engine: s.engine.stats(),
		Resilience: ResilienceStats{
			InFlight: s.inflight.Load(),
			Queued:   s.queued.Load(),
			Sheds:    s.sheds.Load(),
			Panics:   s.panics.Load(),
			Cancels:  s.cancels.Load(),
			Dedups:   s.dedups.Load(),
		},
		Search:   s.searchStats(),
		Snapshot: s.snapshotStats(),
	}
	if st.Eval.Evals > 0 {
		st.Eval.AvgNanos = st.Eval.TotalNanos / st.Eval.Evals
	}
	sessions := s.store.sessions()
	st.Systems = len(sessions)
	for _, sess := range sessions {
		ps := sess.poolStats()
		for _, p := range ps {
			st.Resilience.Discards += p.Discarded
		}
		st.Pools = append(st.Pools, ps...)
	}
	return st
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"kpa/internal/canon"
	"kpa/internal/core"
	"kpa/internal/logic"
	"kpa/internal/measure"
	"kpa/internal/registry"
	"kpa/internal/service"
	"kpa/internal/system"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // the base or sample count behind the value
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// poolTotals sums the evaluator-pool counters over every pool.
func poolTotals(st service.Stats) (created, reused, resets uint64) {
	for _, p := range st.Pools {
		created += p.Created
		reused += p.Reused
		resets += p.Resets
	}
	return created, reused, resets
}

// statsMetrics derives the service, engine and Go-runtime layer metrics
// from counter deltas over the timed phase.
func statsMetrics(w *workload, res *driveResult, before, after service.Stats, m0, m1 *runtime.MemStats) []metric {
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	evals := float64(after.Eval.Evals - before.Eval.Evals)
	evalNs := float64(after.Eval.TotalNanos - before.Eval.TotalNanos)
	c0, r0, x0 := poolTotals(before)
	c1, r1, x1 := poolTotals(after)
	checkouts := float64(c1 - c0 + r1 - r0)
	par := float64(after.Engine.ParallelPaths - before.Engine.ParallelPaths)
	ser := float64(after.Engine.SerialPaths - before.Engine.SerialPaths)
	requests := float64(res.sum(func(c *clientResult) int { return c.attempted }))
	verdicts := float64(res.sum(func(c *clientResult) int { return c.verdicts }))
	var busy float64
	for _, c := range res.clients {
		busy += float64(c.busyNs)
	}
	wall := float64(w.clients) * float64(res.elapsed.Nanoseconds())
	return []metric{
		{"service.cache_hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("%.0f hits of %.0f lookups", hits, hits+misses)},
		{"service.cache_evictions", float64(after.Cache.Evictions - before.Cache.Evictions), "count", ""},
		{"service.dedup_ratio", ratio(float64(after.Resilience.Dedups-before.Resilience.Dedups), misses), "ratio", fmt.Sprintf("of %.0f misses", misses)},
		{"service.overhead_us", ratio(busy-evalNs, requests) / 1e3, "us", fmt.Sprintf("(request time - eval time) / %.0f requests", requests)},
		{"service.eval_busy_frac", ratio(evalNs, wall), "ratio", fmt.Sprintf("eval time / (%d clients x wall)", w.clients)},
		{"service.pool_cold_ratio", ratio(float64(c1-c0), checkouts), "ratio", fmt.Sprintf("%d cold of %.0f checkouts", c1-c0, checkouts)},
		{"service.pool_resets", float64(x1 - x0), "count", ""},
		{"service.sheds", float64(after.Resilience.Sheds - before.Resilience.Sheds), "count", ""},
		{"service.cancels", float64(after.Resilience.Cancels - before.Resilience.Cancels), "count", ""},
		{"engine.parallel_frac", ratio(par, par+ser), "ratio", fmt.Sprintf("of %.0f engine regions", par+ser)},
		{"engine.shard_rounds_per_eval", ratio(float64(after.Engine.ShardRounds-before.Engine.ShardRounds), evals), "count", fmt.Sprintf("over %.0f evals", evals)},
		{"go.alloc_bytes_per_verdict", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), verdicts), "bytes", fmt.Sprintf("over %.0f verdicts", verdicts)},
		{"go.num_gc", float64(m1.NumGC - m0.NumGC), "count", ""},
		{"go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms", ""},
	}
}

// replayCount bounds the service-level replays.
const replayCount = 32

// serviceReplays times direct calls into the loaded service after the
// timed phase: a verdict-cache hit for recently answered formulas, and
// uploads of generated documents the run has not seen.
func serviceReplays(svc *service.Service, res *driveResult, seed int64, tr *tracer) ([]metric, error) {
	var hitsUs []float64
	for _, c := range res.clients {
		for _, e := range c.sent {
			if len(hitsUs) == replayCount {
				break
			}
			if c.docs[e.system] != nil {
				continue
			}
			req := service.CheckRequest{System: e.system, Assign: e.assign, Formula: e.formula}
			if _, err := svc.Check(context.Background(), req); err != nil {
				return nil, fmt.Errorf("hit replay: %w", err)
			}
			var v service.Verdict
			var err error
			d := tr.timed("service.Check(hit)", 0, func() { v, err = svc.Check(context.Background(), req) })
			if err != nil || !v.Cached {
				return nil, fmt.Errorf("hit replay %v: cached=%v err=%v", req, v.Cached, err)
			}
			hitsUs = append(hitsUs, float64(d.Nanoseconds())/1e3)
		}
	}
	var upMs []float64
	for k := 0; k < replayCount; k++ {
		doc := genDoc(seed, docPool+k)
		var err error
		d := tr.timed("service.Upload", 0, func() { _, err = svc.Upload(fmt.Sprintf("replay-%d", k), doc) })
		if err != nil {
			return nil, fmt.Errorf("upload replay: %w", err)
		}
		upMs = append(upMs, float64(d.Nanoseconds())/1e6)
	}
	return []metric{
		{"service.hit_us", median(hitsUs), "us", fmt.Sprintf("median of %d cache hits", len(hitsUs))},
		{"service.upload_ms", median(upMs), "ms", fmt.Sprintf("median of %d uploads", len(upMs))},
	}, nil
}

// evalClasses are the operator classes whose warm evaluation time the
// traced run reports, as formulas over a system's first agent and first
// two propositions (p, q) and its full agent group (G).
var evalClasses = []struct {
	name     string
	template func(p, q, g string) string
	pr       bool
}{
	{"know", func(p, q, g string) string { return "K1 " + p }, false},
	{"common", func(p, q, g string) string { return "C" + g + " " + p }, false},
	{"temporal", func(p, q, g string) string { return "F (" + p + " & X " + q + ")" }, false},
	{"pr", func(p, q, g string) string { return "Pr1(" + p + ") >= 1/2" }, true},
	{"common_pr", func(p, q, g string) string { return "C" + g + "^1/2 " + p }, true},
}

const evalReps = 3

// layerSamples accumulates the replay's measurements across systems.
type layerSamples struct {
	lookupMs, hashMs, indexMs, cellsMs, indexBytes float64
	spaceMs, spaceBytes, spaces                    float64
	coldMs, memoWords                              []float64
	evalMs                                         map[string][]float64
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func totalAlloc() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc)
}

// replayLayers calls each layer's public functions directly on the
// workload's systems and formulas, outside the service, and times them.
// Every system is rebuilt from the registry, so nothing is warm from the
// timed phase.
func replayLayers(w *workload, res *driveResult, infos map[string]service.SystemInfo, tr *tracer) ([]metric, error) {
	par := w.cfg.Parallelism
	if par < 1 {
		par = 1
	}
	root := tr.begin("replay", 0)
	defer tr.end(root)
	ls := &layerSamples{evalMs: make(map[string][]float64)}
	for _, name := range w.systems {
		var e registry.Entry
		var err error
		ls.lookupMs += ms(tr.timed("registry.Lookup", root, func() { e, err = registry.Lookup(name) }))
		if err != nil {
			return nil, err
		}
		ls.hashMs += ms(tr.timed("canon.Hash", root, func() { canon.Hash(e.Sys) }))
		if err := ls.index(e.Sys, par, root, tr); err != nil {
			return nil, err
		}
		// The session's own index, built untimed: the space tables and
		// evaluators below run against it, as pooled workers do.
		e.Sys.BuildIndex(par)
		info := infos[name]
		probs := make(map[string]*core.ProbAssignment)
		for _, a := range w.prReplay(info) {
			if probs[a], err = ls.spaceTable(e.Sys, a, root, tr); err != nil {
				return nil, err
			}
		}
		if err := ls.warm(w, e, info, probs, par, root, tr); err != nil {
			return nil, err
		}
		// Cold: a pooled worker's first queries, on a fresh assignment and
		// evaluator over the session's built index and cells.
		for _, a := range w.assigns(info) {
			for _, text := range res.clients[0].formulas[pair{name, a}] {
				prob, err := newProb(e.Sys, a)
				if err != nil {
					return nil, err
				}
				ev := logic.NewEvaluator(e.Sys, prob, e.Props)
				ev.SetParallelism(par)
				f := logic.MustParse(text)
				ls.coldMs = append(ls.coldMs, ms(tr.timed("logic.DenseExtension(cold)", root, func() { _, err = ev.DenseExtension(f) })))
				if err != nil {
					return nil, err
				}
				ls.memoWords = append(ls.memoWords, float64(ev.MemoWords()))
			}
		}
	}

	var texts []string
	for _, c := range res.clients {
		for _, e := range c.sent {
			texts = append(texts, e.formula)
		}
	}
	var err error
	parse := tr.timed("logic.Parse", root, func() {
		for _, t := range texts {
			if _, err = logic.Parse(t); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out := []metric{
		{"registry.build_ms", ls.lookupMs, "ms", fmt.Sprintf("%d systems", len(w.systems))},
		{"canon.hash_ms", ls.hashMs, "ms", ""},
		{"system.index_ms", ls.indexMs, "ms", fmt.Sprintf("%d workers", par)},
		{"system.cells_ms", ls.cellsMs, "ms", "every agent"},
		{"system.index_bytes", ls.indexBytes, "bytes", "allocated by index and cells"},
		{"core.space_table_ms", ls.spaceMs, "ms", "every (agent, point), fresh assignment"},
		{"core.space_table_bytes", ls.spaceBytes, "bytes", ""},
		{"core.spaces", ls.spaces, "count", ""},
		{"logic.parse_us", ratio(ms(parse)*1e3, float64(len(texts))), "us", fmt.Sprintf("mean over %d formulas", len(texts))},
		{"logic.eval_cold_ms", median(ls.coldMs), "ms", fmt.Sprintf("median of %d", len(ls.coldMs))},
	}
	for _, class := range evalClasses {
		out = append(out, metric{"logic.eval_ms." + class.name, median(ls.evalMs[class.name]), "ms",
			fmt.Sprintf("median of %d", len(ls.evalMs[class.name]))})
	}
	out = append(out, metric{"logic.memo_words", median(ls.memoWords), "words", fmt.Sprintf("median of %d", len(ls.memoWords))})
	return out, nil
}

// index times the point index and every agent's cell partition on a fresh
// copy of the system, which shares the trees but none of their indexes.
func (ls *layerSamples) index(sys *system.System, par int, root int64, tr *tracer) error {
	fresh, err := system.NewTrusted(sys.NumAgents(), sys.Trees()...)
	if err != nil {
		return err
	}
	alloc := totalAlloc()
	var idx *system.Index
	ls.indexMs += ms(tr.timed("system.BuildIndex", root, func() { idx = fresh.BuildIndex(par) }))
	ls.cellsMs += ms(tr.timed("system.CellsPar", root, func() {
		for i := 0; i < sys.NumAgents(); i++ {
			idx.CellsPar(system.AgentID(i), par)
		}
	}))
	ls.indexBytes += totalAlloc() - alloc
	return nil
}

// spaceTable times the probability spaces a cold evaluator resolves: one
// Space call per (agent, point) on a fresh assignment, which builds each
// distinct space once. It returns the assignment, its spaces built.
func (ls *layerSamples) spaceTable(sys *system.System, assign string, root int64, tr *tracer) (*core.ProbAssignment, error) {
	prob, err := newProb(sys, assign)
	if err != nil {
		return nil, err
	}
	idx := sys.Index()
	alloc := totalAlloc()
	distinct := make(map[*measure.Space]bool)
	ls.spaceMs += ms(tr.timed("core.Space", root, func() {
		for i := 0; i < sys.NumAgents() && err == nil; i++ {
			for id := 0; id < idx.NumPoints(); id++ {
				var sp *measure.Space
				if sp, err = prob.Space(system.AgentID(i), idx.PointAt(id)); err != nil {
					break
				}
				distinct[sp] = true
			}
		}
	}))
	if err != nil {
		return nil, err
	}
	ls.spaceBytes += totalAlloc() - alloc
	ls.spaces += float64(len(distinct))
	return prob, nil
}

// warm times each evaluation class on a warm evaluator after Reset: the
// memo is dropped, the cell partitions and space tables are kept.
func (ls *layerSamples) warm(w *workload, e registry.Entry, info service.SystemInfo,
	probs map[string]*core.ProbAssignment, par int, root int64, tr *tracer) error {
	props := append([]string(nil), info.Props...)
	sort.Strings(props)
	p, q := "true", "true"
	if len(props) > 0 {
		p, q = props[0], props[len(props)-1]
	}
	for _, class := range evalClasses {
		assigns := w.assigns(info)
		if class.pr {
			assigns = w.prReplay(info)
		}
		f := logic.MustParse(class.template(p, q, groupOf(info.Agents)))
		for _, a := range assigns {
			prob := probs[a]
			if prob == nil {
				var err error
				if prob, err = newProb(e.Sys, a); err != nil {
					return err
				}
			}
			ev := logic.NewEvaluator(e.Sys, prob, e.Props)
			ev.SetParallelism(par)
			if _, err := ev.DenseExtension(f); err != nil {
				return fmt.Errorf("%s on %s/%s: %w", class.name, e.Name, a, err)
			}
			for r := 0; r < evalReps; r++ {
				ev.Reset()
				var err error
				d := tr.timed("logic.DenseExtension("+class.name+")", root, func() { _, err = ev.DenseExtension(f) })
				if err != nil {
					return err
				}
				ls.evalMs[class.name] = append(ls.evalMs[class.name], ms(d))
			}
		}
	}
	return nil
}

func newProb(sys *system.System, assign string) (*core.ProbAssignment, error) {
	sa, err := registry.Assignment(sys, assign)
	if err != nil {
		return nil, err
	}
	return core.NewProbAssignment(sys, sa), nil
}

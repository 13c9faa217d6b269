package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"kpa/internal/service"
)

// outDir is where runs leave their verdict digests, spans and reports,
// relative to the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// An untraced run sets the service up from empty at least minSetups
// times, and more while the set-ups so far took under setupBudget, up to
// maxSetups; setup_s is their median. Cheap set-ups are repeated more, so
// their median is as steady as that of expensive ones.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = 2 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (pr-100k, knowledge-1m, small-mixed)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	printSpec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printSpec {
		b, err := specJSON()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rc := runConfig{w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, out: outDir, source: sourceDigest(".")}
	rep, err := execute(rc, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout, rc); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type runConfig struct {
	w     *workload
	seed  int64
	dur   time.Duration
	trace bool
	out   string // directory for digests, spans and reports
	// source identifies the code under test (sourceDigest); verdict
	// digests are only compared between runs of the same code.
	source string
}

// report is one run's outcome.
type report struct {
	provenance map[string]any
	metrics    []metric
	attempted  int
	failed     int
	checked    int
	problems   []string
	errs       []string
}

// setUp builds a service from empty, loads the workload's systems and
// answers one probe per (system, assignment), returning the time that
// took.
func setUp(w *workload, tr *tracer) (*service.Service, map[string]service.SystemInfo, time.Duration, error) {
	svc := service.New(w.cfg)
	infos := make(map[string]service.SystemInfo)
	start := time.Now()
	root := tr.begin("setup", 0)
	for _, name := range w.systems {
		var info service.SystemInfo
		var err error
		tr.timed("service.Load", root, func() { info, err = svc.Load(name) })
		if err != nil {
			return nil, nil, 0, err
		}
		infos[name] = info
	}
	for _, p := range w.pairs(infos) {
		req := service.CheckRequest{System: p.system, Assign: p.assign, Formula: w.probe(infos[p.system])}
		var v service.Verdict
		var err error
		tr.timed("service.Check(probe)", root, func() {
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			defer cancel()
			v, err = svc.Check(ctx, req)
		})
		if err != nil {
			return nil, nil, 0, fmt.Errorf("probe %v: %w", req, err)
		}
		if !v.Valid {
			return nil, nil, 0, fmt.Errorf("probe %v: not valid", req)
		}
	}
	d := time.Since(start)
	tr.end(root)
	return svc, infos, d, nil
}

// execute runs one workload: set-up, the timed closed loop, the memory
// readings, the correctness gate and, when traced, the layer replays.
func execute(rc runConfig, logw io.Writer) (*report, error) {
	w := rc.w
	var tr *tracer
	var base *driveResult
	dur := rc.dur
	if rc.trace {
		// The baseline trace.overhead_pct is measured against: the same
		// seeded closed loop, untraced, on a service of its own. It and
		// the traced phase each get half the run's time.
		dur /= 2
		svc, infos, _, err := setUp(w, nil)
		if err != nil {
			return nil, fmt.Errorf("baseline set-up: %w", err)
		}
		base = drive(svc, w, rc.seed, dur, infos, nil)
		if f := base.sum(func(c *clientResult) int { return c.failed }); f > 0 {
			var errs []string
			for _, c := range base.clients {
				errs = append(errs, c.errs...)
			}
			return nil, fmt.Errorf("baseline: %d requests failed: %s", f, strings.Join(errs, "; "))
		}
		svc = nil
		runtime.GC()
		debug.FreeOSMemory()
		tr = newTracer()
	}
	var (
		svc    *service.Service
		infos  map[string]service.SystemInfo
		setups []float64
		spent  time.Duration
	)
	for len(setups) == 0 || !rc.trace && len(setups) < maxSetups && (len(setups) < minSetups || spent < setupBudget) {
		if svc != nil {
			// Drop the previous set-up's service before the next one, so
			// the peak RSS reflects one live service.
			svc = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		var d time.Duration
		var err error
		if svc, infos, d, err = setUp(w, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		spent += d
	}

	var m0, m1, m2 runtime.MemStats
	before := svc.Stats()
	runtime.ReadMemStats(&m0)
	total0, steal0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	phase := tr.begin("timed", 0)
	res := drive(svc, w, rc.seed, dur, infos, tr)
	tr.end(phase)
	total1, steal1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	after := svc.Stats()
	runtime.ReadMemStats(&m1)
	peak, err := vmHWM()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(svc)

	attempted := res.sum(func(c *clientResult) int { return c.attempted })
	failed := res.sum(func(c *clientResult) int { return c.failed })
	verdicts := res.sum(func(c *clientResult) int { return c.verdicts })
	var lat []float64
	for _, c := range res.clients {
		lat = append(lat, msOf(c.latNs)...)
	}
	rep := &report{attempted: attempted, failed: failed, provenance: provenance(rc)}
	for _, c := range res.clients {
		rep.errs = append(rep.errs, c.errs...)
	}
	n := len(lat)
	rep.metrics = []metric{
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups, %.4f..%.4f s", len(setups), percentile(setups, 0), percentile(setups, 100))},
		{"verdicts_per_s", float64(verdicts) / res.elapsed.Seconds(), "1/s", fmt.Sprintf("%d verdicts in %.3f s", verdicts, res.elapsed.Seconds())},
		{"latency_p50_ms", percentile(lat, 50), "ms", fmt.Sprintf("n=%d requests", n)},
		{"latency_p99_ms", percentile(lat, 99), "ms", fmt.Sprintf("n=%d requests, %d beyond", n, beyond(n, 99))},
		{"peak_rss_mb", peak, "MB", "VmHWM at the end of the timed phase"},
	}
	rep.provenance["setup_reps"] = len(setups)
	// CPU time the hypervisor gave other guests during the timed phase: a
	// run on a contended host reads slower for reasons outside kpa.
	rep.provenance["host_steal_pct"] = 100 * ratio(steal1-steal0, total1-total0)
	rep.provenance["latency_samples"] = n
	rep.provenance["latency_p99_beyond"] = beyond(n, 99)
	rep.provenance["error_ratio"] = ratio(float64(failed), float64(attempted))

	if rc.trace {
		rep.metrics = statsMetrics(w, res, before, after, &m0, &m1)
		sm, err := serviceReplays(svc, res, rc.seed, tr)
		if err != nil {
			return nil, err
		}
		rep.metrics = append(rep.metrics, sm...)
	}
	// The heap the service holds: live heap with the service, less live
	// heap without it, so the benchmark's own bookkeeping, which grows
	// with the requests a run completes, is not counted.
	svc = nil
	runtime.GC()
	debug.FreeOSMemory()
	var m3 runtime.MemStats
	runtime.ReadMemStats(&m3)
	if !rc.trace {
		rep.metrics = append(rep.metrics, metric{"live_heap_mb", (float64(m2.HeapAlloc) - float64(m3.HeapAlloc)) / (1 << 20), "MB",
			fmt.Sprintf("HeapAlloc after a forced GC with the service live, less %.1f MB without it", float64(m3.HeapAlloc)/(1<<20))})
	}

	fmt.Fprintf(logw, "perfbench: %s: %d requests timed, checking verdicts\n", w.name, attempted)
	checked, problems, err := gate(w, res, rc.seed)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	rep.checked, rep.problems = checked, problems
	for _, r := range []*driveResult{base, res} {
		if r == nil {
			continue
		}
		dp, err := checkDigests(rc.out, rc.source, w, rc.seed, r)
		if err != nil {
			return nil, fmt.Errorf("verdict digests: %w", err)
		}
		rep.problems = append(rep.problems, dp...)
	}

	if rc.trace {
		lm, err := replayLayers(w, res, infos, tr)
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		baseRate := float64(base.sum(func(c *clientResult) int { return c.verdicts })) / base.elapsed.Seconds()
		rate := float64(verdicts) / res.elapsed.Seconds()
		lm = append(lm, metric{"trace.overhead_pct", 100 * (1 - rate/baseRate), "%",
			fmt.Sprintf("verdicts/s untraced %.2f, traced %.2f: one seed, back to back", baseRate, rate)})
		rep.metrics = append(lm, rep.metrics...)
		path := filepath.Join(rc.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, rc.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.provenance["trace_file"] = path
		rep.provenance["trace_spans"] = tr.len()
		rep.metrics = ordered(rep.metrics, perLayerNames())
	}
	// The whole process's peak, gate and replays included, so a run that
	// approaches the host's memory shows.
	if hwm, err := vmHWM(); err == nil {
		rep.provenance["process_peak_rss_mb"] = hwm
	}
	return rep, nil
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.Name
	}
	return out
}

// ordered returns the metrics in the listed order.
func ordered(ms []metric, names []string) []metric {
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.name] = m
	}
	out := make([]metric, 0, len(names))
	for _, n := range names {
		if m, ok := byName[n]; ok {
			out = append(out, m)
		}
	}
	return out
}

// provenance records what the numbers were measured on and with.
func provenance(rc runConfig) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      rc.w.name,
		"seed":          rc.seed,
		"seconds":       rc.dur.Seconds(),
		"trace":         rc.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": rc.source,
		"clients":       rc.w.clients,
		// Zero fields take kpad's defaults.
		"service_config": fmt.Sprintf("%+v", rc.w.cfg),
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies the code it measured even in a checkout without git
// metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report, saves it under outDir, and ends
// with the one-line JSON result.
func (r *report) print(w io.Writer, rc runConfig) error {
	var b strings.Builder
	prov, err := json.Marshal(r.provenance)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "provenance %s\n", prov)
	for _, m := range r.metrics {
		fmt.Fprintf(&b, "metric %-30s %16.6f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	if !rc.trace {
		fmt.Fprintf(&b, "metric %-30s %16.6f %-6s %d failed of %d attempted\n", "error_ratio",
			ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	}
	for _, e := range r.errs {
		fmt.Fprintf(&b, "error %s\n", e)
	}
	fmt.Fprintf(&b, "gate checked %d verdicts against logic.ReferenceEvaluator, %d problems\n", r.checked, len(r.problems))
	for _, p := range r.problems {
		fmt.Fprintf(&b, "problem %s\n", p)
	}
	out := result{
		Correct:   len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]resultValue, len(r.metrics)),
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "%s\n", line)
	path := filepath.Join(rc.out, fmt.Sprintf("report-%s-seed%d-trace%d.txt", rc.w.name, rc.seed, map[bool]int{false: 0, true: 1}[rc.trace]))
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	_, err = io.WriteString(w, b.String())
	return err
}

package logic

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// The scale-tier benchmarks drive the dense engine over the gen.ScaleTiers
// broom systems (~10^5 to ~10^7 points) at a configurable parallelism
// budget. They are opt-in — scripts/scale_bench.sh and the verify smoke set
// the environment, everything else skips them — because each (tier,
// workers) pair must run in its own process: the peak-RSS metric reads
// VmHWM from /proc/self/status, which is monotonic over a process's life,
// so mixing tiers in one invocation would charge the small tiers the big
// tier's high-water mark.
//
//	KPA_SCALE_TIER     tier label from gen.ScaleTiers ("100k", "1m", "10m")
//	KPA_SCALE_WORKERS  parallelism budget (default 1)
//
// Usage: KPA_SCALE_TIER=1m KPA_SCALE_WORKERS=4 \
//	go test -run '^$' -bench 'Scale' -benchtime 5x ./internal/logic

// scaleFix lazily builds the benchmark fixture for the configured tier.
// One fixture per process (see above), so a plain cached struct suffices.
var scaleFix struct {
	tier    string
	workers int
	sys     *system.System
	props   map[string]system.Fact
	P       *core.ProbAssignment
	group   []system.AgentID
}

// scaleSetup skips b unless the scale environment is set, then returns the
// process-wide fixture, building it on first use.
func scaleSetup(b *testing.B) {
	b.Helper()
	tier := os.Getenv("KPA_SCALE_TIER")
	if tier == "" {
		b.Skip("scale-tier benchmark: set KPA_SCALE_TIER (100k, 1m, 10m); see scripts/scale_bench.sh")
	}
	if scaleFix.sys != nil {
		if scaleFix.tier != tier {
			b.Fatalf("tier changed mid-process: %s then %s", scaleFix.tier, tier)
		}
		return
	}
	cfg, ok := gen.ScaleTiers[tier]
	if !ok {
		b.Fatalf("unknown KPA_SCALE_TIER %q", tier)
	}
	workers := 1
	if w := os.Getenv("KPA_SCALE_WORKERS"); w != "" {
		n, err := strconv.Atoi(w)
		if err != nil || n < 1 {
			b.Fatalf("bad KPA_SCALE_WORKERS %q", w)
		}
		workers = n
	}
	scaleFix.tier = tier
	scaleFix.workers = workers
	scaleFix.sys = gen.MustScaleSystem(cfg)
	scaleFix.props = map[string]system.Fact{"p": gen.ScaleFact("p", 3)}
	scaleFix.P = core.NewProbAssignment(scaleFix.sys, core.Post(scaleFix.sys))
	scaleFix.group = make([]system.AgentID, cfg.NumAgents)
	for i := range scaleFix.group {
		scaleFix.group[i] = system.AgentID(i)
	}
}

// scaleEvaluator returns a warm evaluator at the configured budget, the
// service's steady state: index, cells and spaces retained, memo dropped
// per iteration by the caller.
func scaleEvaluator(b *testing.B) *Evaluator {
	b.Helper()
	scaleFix.sys.BuildIndex(scaleFix.workers)
	e := NewEvaluator(scaleFix.sys, scaleFix.P, scaleFix.props)
	e.SetParallelism(scaleFix.workers)
	return e
}

// reportPeakRSS attaches the process's VmHWM (peak resident set, KB) to the
// benchmark result. Linux-only; silently absent elsewhere.
func reportPeakRSS(b *testing.B) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				b.ReportMetric(kb, "peakRSS-KB")
			}
			return
		}
	}
}

func scaleBenchFormula(b *testing.B, f Formula) {
	scaleSetup(b)
	e := scaleEvaluator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		if _, err := e.DenseExtension(f); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPeakRSS(b)
}

// BenchmarkScaleIndexBuild measures the one-time per-system cost the
// serving path pays on a cold session: the point index plus every agent's
// cell partition, built with the configured worker count. Each iteration
// wraps the shared tree in a fresh System so the once-guards do not
// short-circuit the build.
func BenchmarkScaleIndexBuild(b *testing.B) {
	scaleSetup(b)
	trees := scaleFix.sys.Trees()
	agents := len(scaleFix.group)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := system.NewTrusted(agents, trees...)
		if err != nil {
			b.Fatal(err)
		}
		idx := sys.BuildIndex(scaleFix.workers)
		for _, a := range scaleFix.group {
			idx.CellsPar(a, scaleFix.workers)
		}
	}
	b.StopTimer()
	reportPeakRSS(b)
}

// BenchmarkScaleKnowledge is one K_i sweep: the sharded bad-cell marking
// plus, when the cells are mixed, the sharded point fill. The proposition's
// extension is built once, by the first iteration, into the evaluator's
// proposition table, which Reset keeps.
func BenchmarkScaleKnowledge(b *testing.B) {
	scaleBenchFormula(b, K(0, Prop("p")))
}

// BenchmarkScaleCommon is the C_G fixpoint, the headline sharded loop.
func BenchmarkScaleCommon(b *testing.B) {
	scaleSetup(b)
	scaleBenchFormula(b, Common(scaleFix.group, Prop("p")))
}

// BenchmarkScaleCommonPr is the C_G^α fixpoint: probability-space sweeps
// under the verdict memo plus the sharded point fills.
func BenchmarkScaleCommonPr(b *testing.B) {
	scaleSetup(b)
	scaleBenchFormula(b, CommonPr(scaleFix.group, Prop("p"), rat.New(1, 3)))
}

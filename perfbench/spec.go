package main

import (
	"encoding/json"
	"fmt"
)

// runSeconds is how long one run measures. knowledge-1m's single client
// completes about 47 requests a second on an idle 2-CPU host; 30 s keeps
// it above the 1000 requests latency_p99_ms needs down to 0.75 times that
// rate, and the driver's 70 runs within their time budget.
const runSeconds = 30

// workloadSpec names one traffic mix and says why the benchmark runs it.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// endToEndSpec is a metric a user of the service sees. Bound is the share
// of the parent's median by which the metric may worsen before a change
// counts as a regression.
type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerSpec is a metric of a single layer, reported by the traced run.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchSpec is the layout of BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

// endToEnd lists the metrics of an untraced run, in print order. The
// seventh end-to-end figure, error_ratio, is 0 on a healthy run and is
// carried by the result's "failed"/"attempted" fields (and printed on the
// report lines) rather than listed here, because a listed metric must
// never be 0.
//
// The bounds allow for a shared 2-CPU virtual machine. Its hypervisor was
// seen to steal 15-30% of the CPU for stretches of minutes, which slows
// knowledge-1m, whose sharded kernels wait for both vCPUs, most: over ten
// seeds in such a stretch the interquartile range over the median of its
// timing metrics reached 0.31-0.43, against 0.06-0.09 on a calm one. With
// no steal at all, pr-100k, whose space tables and 900 MB live heap make
// it lean on the memory system, read 213 and 280 verdicts/s on one seed
// minutes apart, and two sets of ten seeds half an hour apart differed by
// 18% in verdicts_per_s and 26% in latency_p50_ms. So every metric gets
// the largest bound allowed. Memory follows the requests a run completed
// and spread up to 0.09.
var endToEnd = []endToEndSpec{
	{"setup_s", "s", "lower", 0.25},
	{"verdicts_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// perLayer lists the metrics of a traced run, in print order. Each comment
// names the end-to-end metric and workload the layer metric should move.
// The space tables count end to end through set-up: pr-100k's set-up probe
// builds one table per (system, assignment, agent), while in its timed
// phase only the second client's pool workers build theirs, a handful of
// requests too few to reach latency_p99_ms.
var perLayer = []layerSpec{
	{"registry.build_ms", "ms", "lower"},         // setup_s on pr-100k, knowledge-1m
	{"canon.hash_ms", "ms", "lower"},             // setup_s on pr-100k, knowledge-1m
	{"system.index_ms", "ms", "lower"},           // setup_s, peak_rss_mb on knowledge-1m
	{"system.cells_ms", "ms", "lower"},           // setup_s on knowledge-1m
	{"system.index_bytes", "bytes", "lower"},     // peak_rss_mb on knowledge-1m
	{"core.space_table_ms", "ms", "lower"},       // setup_s on pr-100k
	{"core.space_table_bytes", "bytes", "lower"}, // peak_rss_mb, live_heap_mb on pr-100k
	{"core.spaces", "count", "lower"},            // live_heap_mb on pr-100k
	{"logic.parse_us", "us", "lower"},            // latency_p50_ms on small-mixed
	{"logic.eval_cold_ms", "ms", "lower"},        // setup_s on pr-100k
	{"logic.eval_ms.know", "ms", "lower"},        // verdicts_per_s on knowledge-1m
	{"logic.eval_ms.common", "ms", "lower"},      // verdicts_per_s on knowledge-1m
	{"logic.eval_ms.temporal", "ms", "lower"},    // verdicts_per_s on knowledge-1m
	{"logic.eval_ms.pr", "ms", "lower"},          // verdicts_per_s on pr-100k
	{"logic.eval_ms.common_pr", "ms", "lower"},   // verdicts_per_s on pr-100k
	{"logic.memo_words", "words", "lower"},       // service.pool_resets on knowledge-1m
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.cache_evictions", "count", "lower"},
	{"service.dedup_ratio", "ratio", "higher"},
	{"service.hit_us", "us", "lower"},
	{"service.upload_ms", "ms", "lower"},
	{"service.overhead_us", "us", "lower"},
	{"service.eval_busy_frac", "ratio", "higher"},
	{"service.pool_cold_ratio", "ratio", "lower"}, // peak_rss_mb, live_heap_mb on pr-100k
	{"service.pool_resets", "count", "lower"},     // verdicts_per_s on knowledge-1m
	{"service.sheds", "count", "lower"},           // error_ratio on all
	{"service.cancels", "count", "lower"},         // error_ratio on all
	{"engine.parallel_frac", "ratio", "higher"},   // verdicts_per_s on knowledge-1m
	{"engine.shard_rounds_per_eval", "count", "lower"},
	{"go.alloc_bytes_per_verdict", "bytes", "lower"}, // latency_p99_ms, peak_rss_mb on all
	{"go.num_gc", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// spec assembles BENCHMARK.json from the workload table and the metric
// lists, so the file and the program cannot disagree.
func spec() benchSpec {
	s := benchSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{Name: w.name, Why: w.why})
	}
	return s
}

// specJSON renders BENCHMARK.json's content.
func specJSON() ([]byte, error) {
	b, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("perfbench: render spec: %w", err)
	}
	return append(b, '\n'), nil
}

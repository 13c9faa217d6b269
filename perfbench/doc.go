// Command perfbench is kpa's benchmark. It drives internal/service — the
// serving core cmd/kpad wraps — in process, one named workload per
// process, with inputs generated from a seed, and prints every metric by
// name and unit followed by a one-line JSON result.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload pr-100k --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload pr-100k --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh --spec > BENCHMARK.json
//
// run.sh builds the binary from the checkout's sources into .bench_build
// and runs it; runs leave verdict digests, span files and reports in
// .bench_build/perfbench. The benchmark's own tests run with
// (cd perfbench && go test .); add -short to skip the million-point smoke
// run.
//
// # A run
//
// An untraced run (--trace 0) sets a service up from empty at least three
// times, and up to 50 times while the set-ups so far took under 2 s
// (setup_s is the median; each set-up is dropped and the heap returned to
// the OS before the next, so the peak RSS reflects one service), then runs
// a closed loop for --seconds: each client sends its next request only
// after its previous one returned, with kpad's 30 s request timeout. It
// then reads the peak RSS (VmHWM) and, after a forced GC with the service
// still live, the live heap; drops the service and reads the live heap
// again; and runs the correctness gate. End-to-end metrics:
//
//	setup_s         Load of every system plus one probe Check per
//	                (system, assignment), from an empty Service; the
//	                probe is E_G^1/2 true over every agent on pr-100k,
//	                which builds every agent's space table, and E_G true
//	                elsewhere, which builds the index and cell partitions
//	verdicts_per_s  formulas answered per second; a batch of n counts n
//	latency_p50_ms  per request (check, batch or upload), nearest rank
//	latency_p99_ms  the same; the report states the sample count and how
//	                many samples lie beyond it (ten from 1000 samples on)
//	peak_rss_mb     VmHWM of the process at the end of the timed phase,
//	                the benchmark's own bookkeeping included
//	live_heap_mb    HeapAlloc after a forced GC at the end of the timed
//	                phase, less HeapAlloc after the service is dropped and
//	                the GC forced again: the heap the service holds,
//	                without the benchmark's bookkeeping (latencies, kept
//	                verdicts), which grows with the requests a run completes
//
// error_ratio, failed over attempted operations, is printed on the report
// lines and carried by the result's "failed" and "attempted" fields; it is
// not a listed metric because it is 0 on a healthy run.
//
// The correctness gate is kept apart from error_ratio. Outside the timed
// phase it rebuilds each system from its registry name or uploaded
// document and checks Valid, HoldsAt, Points and CounterTotal against
// logic.ReferenceEvaluator: every distinct verdict on small-mixed (and
// that repeats of one verdict agree, across clients too), a seeded sample
// on the scale tiers, where the reference needs about a second per formula
// at 10^5 points and far more at 10^6. Each client's request stream
// depends on the seed alone, so the run also folds its verdicts into a
// digest and compares it with what earlier runs of the same workload and
// seed stored in .bench_build/perfbench: a verdict that changed between
// runs fails the run like a mismatch does.
//
// A traced run (--trace 1) first runs the same seeded closed loop untraced
// on a service of its own for half of --seconds, as a baseline, then sets
// up once more and runs it for the other half with a span around every
// request, then reports per-layer metrics:
// deltas of Service.Stats and runtime.MemStats over the traced timed
// phase, direct calls into the service (cache hits on answered formulas,
// uploads of unseen generated documents), and a replay of each layer's
// public functions on the workload's systems and formulas with a span
// around each call: registry.Lookup, canon.Hash, BuildIndex and CellsPar
// on a fresh system.NewTrusted copy, core.ProbAssignment.Space for every
// (agent, point) on a fresh assignment, logic.Parse,
// logic.Evaluator.DenseExtension cold (fresh assignment and evaluator) and
// warm (after Reset). Spans go to
// .bench_build/perfbench/trace-<workload>-seed<n>.json. trace.overhead_pct
// is how much lower verdicts_per_s is in the traced phase than in the
// baseline: it includes the tracer's lock, shared by the clients, and its
// growing span slice, but it also carries the noise between two phases of
// verdicts_per_s: on small-mixed four runs read from -8% to +10%, while
// two untraced phases of one run differed by at most 2%.
// Tracing inside the program is out of scope here.
//
// # Workloads
//
// pr-100k: scale:100k under post and prior, two clients, kpad defaults
// (serial engine). Every formula has a probabilistic top operator (Pr_i ≥/≤
// q, K_i^q, K_i^[a,b], E_G^q, C_G^q) over a small Pr-free subformula, and
// no formula is sent twice, so every request misses the verdict cache.
// Stresses core and measure (space tables) and logic's Pr path. The set-up
// probe builds the space tables of one pool worker per pair, so their
// build time shows in setup_s and their size in peak_rss_mb and
// live_heap_mb. In the timed phase the second client's workers build
// theirs on their first queries: a handful of slow requests among
// thousands, beyond the p99, so latency_p99_ms does not show table builds.
// Bypasses the verdict cache.
//
// knowledge-1m: scale:1m, one client, Config.Parallelism = nproc. Formulas
// use K_i, E_G, C_G, X, F, G, U and Boolean operators up to operator
// depth 2, never Pr, and never repeat. Stresses the bitset kernels, cell
// partitions, fixpoint rounds and ParRange/Gate sharding on a working set
// larger than L2. Bypasses the space tables and the verdict cache, so a
// space-table change should leave it unchanged. A run times about 1400
// requests on an idle 2-CPU host, and stays above 1000 while the
// hypervisor steals up to about a quarter of the CPU (host_steal_pct in
// the provenance line); past that the report shows fewer than ten samples
// beyond the p99. Its traced run replays the probability layers under
// prior, the one assignment whose tables fit in memory at 10^6 points.
//
// small-mixed: the paper's registry systems (introcoin, vardi, die,
// async:1..6, biased, fig1, ca1-3, canever, aces-fixed, aces-random) under
// every assignment (post, fut, prior, opp:J), plus internal/gen systems
// uploaded during the run; two clients, kpad defaults. Requests draw from
// a roster of 6144 (system, assignment, formula) entries, larger than the
// 4096-entry verdict cache, with Zipf popularity. Every 50th op is an
// upload of one of 256 generated documents under a fresh name (documents
// repeat, so later uploads alias earlier sessions); every 5th is a batch
// of 4-16 formulas, the drawn entry and the ones after it in its pair's
// roster, as kpaload batches a slice of its roster; and one check or batch
// in 50 queries one of the client's own uploads with fresh formulas. No
// recorded kpad traffic exists to take this mix from. Its definition fixes
// the roster beyond the cache, Zipf skew, batches of 4-16 and about one
// upload in 50; the batch cadence follows kpaload's default (-batch-every
// 5). The rest are unverified assumptions: the Zipf weight (16+k)^-1.1 of
// rank k, whose offset 16 was chosen so that runs with different seeds
// give comparable figures, not from observed traffic; the 256-document
// pool; and the one query in 50 on uploads. Stresses per-request service
// work: parse, cache and LRU, singleflight, pool checkout, batch fan-out,
// and encode, canon and store on uploads. The engine is nearly idle.
// Sessions are never evicted, so their growth shows in live_heap_mb. With
// batch fan-out, evaluations of one request overlap, so
// service.eval_busy_frac can exceed 1 and service.overhead_us can be
// negative.
//
// # Left out
//
// fut and opp:J on the scale tiers: fut on scale:100k runs out of memory
// on a 7 GB host (ROADMAP items 2 and 5: quadratic space tables and no
// memory budget). kpad's HTTP/JSON layer, internal/search and snapshot
// restore are covered by kpaload and BENCH_RESTART.json, not here.
//
// # Earlier numbers that mixed cold and warm work
//
// BENCH_SCALE.json's CommonPr rows time a fresh evaluator per benchmark
// at -benchtime 3x (100k) and 2x (1m), so the space-table build of the
// first iteration sits inside the mean: "1m/w1/CommonPr 417 ms/op, 1.6M
// allocs" and "1m/w4/CommonPr 682 ms/op" are mostly that build, and
// "100k/w*/CommonPr" (about 25 ms/op, 105k allocs) partly. Its "slower at
// 4 workers" came from a 1-CPU host. BENCH_RESTART.json's cold p99
// (555 ms) includes the session's first index, cell and space builds.
// Here that cost is setup_s, logic.eval_cold_ms and core.space_table_ms,
// apart from the warm logic.eval_ms.* classes.
package main

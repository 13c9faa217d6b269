package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"kpa/internal/service"
)

// testInfos describes the workload's systems to the generators. Small
// systems are loaded for real; the scale tiers are described directly
// (three agents, propositions m2, m3, m5), which keeps a million-point
// build out of the generator tests.
func testInfos(t *testing.T, w *workload) map[string]service.SystemInfo {
	t.Helper()
	svc := service.New(service.Config{})
	infos := make(map[string]service.SystemInfo)
	for _, name := range w.systems {
		if name == "scale:100k" || name == "scale:1m" {
			infos[name] = service.SystemInfo{Name: name, Agents: 3, Props: []string{"m2", "m3", "m5"}}
			continue
		}
		info, err := svc.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		infos[name] = info
	}
	return infos
}

func generate(w *workload, seed int64, infos map[string]service.SystemInfo, n int) []byte {
	var all [][]op
	for c := 0; c < w.clients; c++ {
		next := w.newGen(w, seed, c, infos)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = next()
		}
		all = append(all, ops)
	}
	b, err := json.Marshal(all)
	if err != nil {
		panic(err)
	}
	return b
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		infos := testInfos(t, w)
		a := generate(w, 7, infos, 500)
		b := generate(w, 7, infos, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", w.name)
		}
		if c := generate(w, 8, infos, 500); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

// TestFreshFormulasNeverRepeat pins the scale workloads' promise that
// every request misses the verdict cache: no canonical formula is sent
// twice on one pair, by one client or across clients.
func TestFreshFormulasNeverRepeat(t *testing.T) {
	for _, w := range workloads {
		if w.name == "small-mixed" {
			continue
		}
		infos := testInfos(t, w)
		seen := make(map[string]bool)
		for c := 0; c < w.clients; c++ {
			next := w.newGen(w, 3, c, infos)
			for i := 0; i < 3000; i++ {
				o := next()
				key := o.System + "\x00" + o.Assign + "\x00" + canonical(o.Formulas[0])
				if seen[key] {
					t.Fatalf("%s: client %d repeated %q", w.name, c, o.Formulas[0])
				}
				seen[key] = true
			}
		}
	}
}

// TestMixedCadence pins small-mixed's traffic shape: every uploadEvery-th
// op is an upload, every batchEvery-th a batch of 4-16 formulas on one
// pair, and the rest single checks.
func TestMixedCadence(t *testing.T) {
	w, err := lookupWorkload("small-mixed")
	if err != nil {
		t.Fatal(err)
	}
	next := w.newGen(w, 5, 0, testInfos(t, w))
	for k := 0; k < 1000; k++ {
		o := next()
		want := "check"
		switch {
		case k%uploadEvery == uploadEvery-1:
			want = "upload"
		case k%batchEvery == 0:
			want = "batch"
		}
		if o.Kind != want {
			t.Fatalf("op %d is a %s, want a %s", k, o.Kind, want)
		}
		switch n := len(o.Formulas); {
		case want == "batch" && (n < 4 || n > 16), want == "check" && n != 1:
			t.Fatalf("op %d: %s with %d formulas", k, o.Kind, n)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[len(thousand)-1-i] = float64(i + 1) // unsorted on purpose
	}
	cases := []struct {
		values []float64
		p      float64
		want   float64
	}{
		{thousand, 99, 990},
		{thousand, 50, 500},
		{thousand, 100, 1000},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 75, 3},
		{[]float64{5}, 99, 5},
	}
	for _, c := range cases {
		if got := percentile(c.values, c.p); got != c.want {
			t.Errorf("percentile(%d values, %v) = %v, want %v", len(c.values), c.p, got, c.want)
		}
	}
	if thousand[0] != 1000 {
		t.Error("percentile sorted its input in place")
	}
	// The p99 is trusted from 1000 samples on: then ten lie beyond it.
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	if got := beyond(999, 99); got >= 10 {
		t.Errorf("beyond(999, 99) = %d, want fewer than 10", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndSpec(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q uses characters outside [A-Za-z0-9_.-] or is too long", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	s := spec()
	for _, w := range s.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range s.EndToEnd {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	for _, m := range s.PerLayer {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the spec; regenerate it with: bash perfbench/run.sh --spec > BENCHMARK.json")
	}
}

// TestSmokeRuns runs every workload briefly and requires every verdict the
// gate checks to match the reference evaluator, with no failed request.
func TestSmokeRuns(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name == "knowledge-1m" {
			continue // builds a million-point system several times
		}
		rep, err := execute(runConfig{w: w, seed: 1, dur: 200 * time.Millisecond, out: t.TempDir()}, os.Stderr)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.attempted == 0 || rep.failed != 0 || len(rep.problems) != 0 || rep.checked == 0 {
			t.Errorf("%s: attempted %d failed %d checked %d problems %v errors %v",
				w.name, rep.attempted, rep.failed, rep.checked, rep.problems, rep.errs)
		}
		if len(rep.metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(rep.metrics), len(endToEnd))
		}
	}
}

// TestTracedRunReportsEveryLayerMetric runs small-mixed traced and checks
// that the report carries exactly the per-layer metrics, and that a
// second run of the seed finds the same verdicts.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	w, err := lookupWorkload("small-mixed")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		rep, err := execute(runConfig{w: w, seed: 2, dur: 200 * time.Millisecond, trace: true, out: dir}, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.problems) != 0 {
			t.Fatalf("run %d: %v", run, rep.problems)
		}
		got := make([]string, len(rep.metrics))
		for i, m := range rep.metrics {
			got[i] = m.name
		}
		if want := perLayerNames(); !equal(got, want) {
			t.Fatalf("traced metrics %v, want %v", got, want)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDigestsCatchAChangedVerdict(t *testing.T) {
	w, err := lookupWorkload("pr-100k")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res := func(d0, d1 []uint64) *driveResult {
		return &driveResult{clients: []*clientResult{{digest: d0}, {digest: d1}}}
	}
	if p, err := checkDigests(dir, "src", w, 1, res([]uint64{1, 2, 3}, []uint64{4})); err != nil || p != nil {
		t.Fatalf("first run: %v %v", p, err)
	}
	// A shorter or longer run of the same seed agrees on the common prefix.
	if p, err := checkDigests(dir, "src", w, 1, res([]uint64{1, 2}, []uint64{4, 5})); err != nil || p != nil {
		t.Fatalf("same verdicts: %v %v", p, err)
	}
	if p, err := checkDigests(dir, "src", w, 1, res([]uint64{1, 9, 3}, []uint64{4, 5})); err != nil || len(p) != 1 {
		t.Fatalf("changed verdict: problems %v, err %v", p, err)
	}
	if p, err := checkDigests(dir, "src", w, 2, res([]uint64{7}, nil)); err != nil || p != nil {
		t.Fatalf("another seed: %v %v", p, err)
	}
}

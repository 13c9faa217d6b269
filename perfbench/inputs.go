package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"kpa/internal/encode"
	"kpa/internal/gen"
	"kpa/internal/logic"
	"kpa/internal/service"
)

// op is one client request. Check ops carry one formula, batch ops several;
// upload ops carry an internal/encode document registered under System.
type op struct {
	Kind     string   `json:"kind"`
	System   string   `json:"system"`
	Assign   string   `json:"assign,omitempty"`
	Formulas []string `json:"formulas,omitempty"`
	Doc      []byte   `json:"doc,omitempty"`
}

// pair is one (system, assignment) the service keeps an evaluator pool for.
type pair struct{ system, assign string }

// workload is one traffic mix: the service config, the registry systems
// preloaded at set-up, the assignments queried on each, and the per-client
// request generator.
type workload struct {
	name, why string
	clients   int
	cfg       service.Config
	systems   []string
	assigns   func(info service.SystemInfo) []string
	// gateSample is how many verdicts of a run the correctness gate checks
	// against logic.ReferenceEvaluator; 0 checks every distinct verdict.
	gateSample int
	// prReplay maps a system to the assignments the traced run replays the
	// probability layers (core spaces, Pr evaluation) under.
	prReplay func(info service.SystemInfo) []string
	// probe is the set-up's one Check per (system, assignment).
	probe  func(info service.SystemInfo) string
	newGen func(w *workload, seed int64, client int, infos map[string]service.SystemInfo) func() op
}

// smallSystems are the paper's registry systems small-mixed serves.
// async:7 and async:8 are left out: there a cold pool worker's opp:J and
// fut space tables take 0.2-2 s to build, and the handful of such builds a
// run happens to trigger would outweigh the service work this mix exists
// to measure (pr-100k measures space-table builds).
var smallSystems = []string{
	"introcoin", "vardi", "die",
	"async:1", "async:2", "async:3", "async:4", "async:5", "async:6",
	"biased", "fig1", "ca1", "ca2", "ca3", "canever", "aces-fixed", "aces-random",
}

func fixedAssigns(names ...string) func(service.SystemInfo) []string {
	return func(service.SystemInfo) []string { return names }
}

// allAssigns lists every assignment kpad accepts on the system.
func allAssigns(info service.SystemInfo) []string {
	out := []string{"post", "fut", "prior"}
	for j := 1; j <= info.Agents; j++ {
		out = append(out, "opp:"+strconv.Itoa(j))
	}
	return out
}

var workloads = []*workload{
	{
		name: "pr-100k",
		why: "scale:100k, post+prior, 2 clients, serial engine; every formula has a Pr-type top operator and misses the cache. " +
			"Stresses core/measure space tables and the Pr path; fut omitted: it OOMs on 100k",
		clients:    2,
		systems:    []string{"scale:100k"},
		assigns:    fixedAssigns("post", "prior"),
		gateSample: 4,
		prReplay:   fixedAssigns("post", "prior"),
		probe:      prProbe,
		newGen:     freshGen(prFormula),
	},
	{
		name: "knowledge-1m",
		why: "scale:1m, 1 client, engine parallelism nproc; K/E/C/temporal/Boolean formulas, no Pr, all cache misses. " +
			"Stresses bitset kernels, cells, fixpoints, sharding; bypasses space tables",
		clients:    1,
		cfg:        service.Config{Parallelism: runtime.NumCPU()},
		systems:    []string{"scale:1m"},
		assigns:    fixedAssigns("post"),
		gateSample: 1,
		prReplay:   fixedAssigns("prior"),
		probe:      knowledgeProbe,
		newGen:     freshGen(knowledgeFormula),
	},
	{
		name: "small-mixed",
		why: "paper registry systems + uploaded gen systems, all assignments, 2 clients; Zipf checks/batches over a roster beyond the cache, 1 op in 50 an upload. " +
			"Stresses service overhead, not the engine",
		clients:  2,
		systems:  smallSystems,
		assigns:  allAssigns,
		prReplay: allAssigns,
		probe:    knowledgeProbe,
		newGen:   mixedGen,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("perfbench: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// pairs lists the workload's preloaded (system, assignment) pairs in a
// fixed order.
func (w *workload) pairs(infos map[string]service.SystemInfo) []pair {
	var out []pair
	for _, s := range w.systems {
		for _, a := range w.assigns(infos[s]) {
			out = append(out, pair{s, a})
		}
	}
	return out
}

// knowledgeProbe is the set-up probe for a workload without Pr-type
// traffic: E_G true over every agent evaluates nothing but makes the
// service build the point index and every agent's cell partition, which
// the first real query would otherwise pay.
func knowledgeProbe(info service.SystemInfo) string {
	return "E" + groupOf(info.Agents) + " true"
}

// prProbe is the set-up probe for pr-100k, whose every query is Pr-type:
// E_G^1/2 true over every agent also makes the probed pool worker build
// every agent's space table, so setup_s carries one table build per
// (system, assignment, agent).
func prProbe(info service.SystemInfo) string {
	return "E" + groupOf(info.Agents) + "^1/2 true"
}

func groupOf(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = strconv.Itoa(i + 1)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// clientRNG derives client c's generator from the run seed; stream 0 is
// reserved for inputs shared by every client.
func clientRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919 + 1))
}

// fgen draws formulas over one system's agents and propositions.
//
// Thresholds are split between clients: the threshold of a top-level
// probability operator comes from bounds[i] with i ≡ part (mod parts), so
// clients drawing fresh formulas never send the same one.
type fgen struct {
	rng         *rand.Rand
	agents      int
	props       []string
	part, parts int
}

func newFgen(rng *rand.Rand, info service.SystemInfo) fgen {
	props := append([]string(nil), info.Props...)
	sort.Strings(props)
	return fgen{rng: rng, agents: info.Agents, props: props, parts: 1}
}

func (g fgen) atom() string {
	if len(g.props) == 0 {
		if g.rng.Intn(2) == 0 {
			return "true"
		}
		return "false"
	}
	p := g.props[g.rng.Intn(len(g.props))]
	if g.rng.Intn(3) == 0 {
		return "!" + p
	}
	return p
}

func (g fgen) agent() int { return 1 + g.rng.Intn(g.agents) }

func (g fgen) group() string {
	for {
		var members []string
		for i := 1; i <= g.agents; i++ {
			if g.rng.Intn(2) == 0 {
				members = append(members, strconv.Itoa(i))
			}
		}
		if len(members) > 0 {
			return "{" + strings.Join(members, ",") + "}"
		}
	}
}

// bounds are the probability thresholds formulas use; ordered, so an
// interval [bounds[i], bounds[j]] with i ≤ j is never empty.
var bounds = []string{"0", "1/8", "1/4", "1/3", "1/2", "2/3", "3/4", "7/8", "9/10", "99/100", "1"}

// pick draws an index into bounds from [lo, hi) that belongs to g's part.
func (g fgen) pick(lo, hi int) int {
	first := lo + ((g.part-lo)%g.parts+g.parts)%g.parts
	return first + g.parts*g.rng.Intn((hi-first+g.parts-1)/g.parts)
}

// bound draws a threshold strictly between 0 and 1.
func (g fgen) bound() string { return bounds[g.pick(1, len(bounds)-1)] }

// interval draws a nonempty interval [a,b] whose lower end is g's.
func (g fgen) interval() string {
	i := g.pick(0, len(bounds)-1)
	j := i + g.rng.Intn(len(bounds)-i)
	return "[" + bounds[i] + "," + bounds[j] + "]"
}

// knowledge draws a Pr-free formula of at most the given operator depth:
// knowledge, group knowledge, temporal and Boolean operators over atoms.
func (g fgen) knowledge(depth int) string {
	if depth == 0 {
		return g.atom()
	}
	sub := func() string { return "(" + g.knowledge(g.rng.Intn(depth)) + ")" }
	switch g.rng.Intn(11) {
	case 0:
		return fmt.Sprintf("K%d %s", g.agent(), sub())
	case 1:
		return "E" + g.group() + " " + sub()
	case 2:
		return "C" + g.group() + " " + sub()
	case 3:
		return "X " + sub()
	case 4:
		return "F " + sub()
	case 5:
		return "G " + sub()
	case 6:
		return sub() + " U " + sub()
	case 7:
		return sub() + " & " + sub()
	case 8:
		return sub() + " | " + sub()
	case 9:
		return sub() + " -> " + sub()
	default:
		return "!" + sub()
	}
}

// probabilityOps counts the top operators probabilityOp chooses from.
const probabilityOps = 6

// probability draws a formula whose top operator is probabilistic, over a
// Pr-free subformula of at most the given depth.
func (g fgen) probability(depth int) string {
	return g.probabilityOp(g.rng.Intn(probabilityOps), depth)
}

// probabilityOp is probability with the op-th top operator of Pr_i ≥,
// Pr_i ≤, K_i^q, K_i^[a,b], E_G^q, C_G^q.
func (g fgen) probabilityOp(op, depth int) string {
	sub := "(" + g.knowledge(depth) + ")"
	switch op {
	case 0:
		return fmt.Sprintf("Pr%d%s >= %s", g.agent(), sub, g.bound())
	case 1:
		return fmt.Sprintf("Pr%d%s <= %s", g.agent(), sub, g.bound())
	case 2:
		return fmt.Sprintf("K%d^%s %s", g.agent(), g.bound(), sub)
	case 3:
		return fmt.Sprintf("K%d^%s %s", g.agent(), g.interval(), sub)
	case 4:
		return "E" + g.group() + "^" + g.bound() + " " + sub
	default:
		return "C" + g.group() + "^" + g.bound() + " " + sub
	}
}

// prFormula draws pr-100k's k-th formula: top operators take turns, the
// subformula has depth 0 or 1.
func prFormula(g fgen, k int) string {
	return g.probabilityOp(k%probabilityOps, g.rng.Intn(2))
}

// knowledgeFormula draws a knowledge-1m formula of depth at most 2: there
// are only a few hundred of depth 1 over three propositions, too few to
// never repeat, and deeper ones would cost a 10^6-point run its 1000
// requests. The top operator is drawn, not taken in turn: under a fixed
// unary operator the depth-1 formulas would run out within a run.
func knowledgeFormula(g fgen, _ int) string { return g.knowledge(2) }

// mixedFormula draws either kind, for the small systems where every
// operator is cheap.
func mixedFormula(g fgen) string {
	if g.rng.Intn(2) == 0 {
		return g.probability(g.rng.Intn(2))
	}
	return g.knowledge(1 + g.rng.Intn(2))
}

// freshGen sends Check requests with a formula no client sent before, so
// every request misses the verdict cache. Pairs take turns rather than
// being drawn, and draw gets the request's turn on its pair, so every run,
// whatever its seed, can send the same mix of pairs and operators.
func freshGen(draw func(fgen, int) string) func(*workload, int64, int, map[string]service.SystemInfo) func() op {
	return func(w *workload, seed int64, client int, infos map[string]service.SystemInfo) func() op {
		rng := clientRNG(seed, client+1)
		ps := w.pairs(infos)
		seen := make(map[string]bool)
		k := 0
		return func() op {
			p := ps[k%len(ps)]
			g := newFgen(rng, infos[p.system])
			g.part, g.parts = client, w.clients
			f := draw(g, k/len(ps))
			for tries := 0; seen[canonical(f)] && tries < 100; tries++ {
				f = draw(g, k/len(ps))
			}
			seen[canonical(f)] = true
			k++
			return op{Kind: "check", System: p.system, Assign: p.assign, Formulas: []string{f}}
		}
	}
}

// canonical is the service's cache-key form of a formula the generators
// built; they only build well-formed formulas.
func canonical(f string) string {
	return logic.MustParse(f).String()
}

// small-mixed's shape. There is no recorded kpad traffic to take it from.
// The workload fixes a roster larger than the service's 4096-entry verdict
// cache, so Zipf traffic over it both hits and evicts, batches of 4-16
// formulas, and about one upload in 50 ops. The batch cadence and the
// batch's members, a slice of the roster, follow cmd/kpaload's defaults.
// The rest are unverified assumptions: popularity of rank k proportional
// to (zipfV+k)^-zipfS, whose offset was chosen so that runs with different
// seeds give comparable figures (no seed-drawn entry carries a large share
// of the traffic), not from observed traffic; the document pool; and the
// share of requests that query an upload.
const (
	rosterSize    = 6144
	zipfS         = 1.1
	zipfV         = 16
	uploadEvery   = 50  // every uploadEvery-th op is an upload
	batchEvery    = 5   // every batchEvery-th op is a batch, as in kpaload
	docPool       = 256 // distinct generated documents per seed
	uploadTargets = 50  // one check or batch in uploadTargets queries an upload
)

type rosterEntry struct {
	pair
	formula string
	inPair  int // position in byPair[pair]
}

// roster draws small-mixed's shared formula roster from the seed. Entries
// are in popularity order; byPair lists each pair's entries in that order.
func roster(seed int64, infos map[string]service.SystemInfo) ([]rosterEntry, map[pair][]int) {
	rng := clientRNG(seed, 0)
	var ps []pair
	for _, s := range smallSystems {
		for _, a := range allAssigns(infos[s]) {
			ps = append(ps, pair{s, a})
		}
	}
	entries := make([]rosterEntry, rosterSize)
	byPair := make(map[pair][]int)
	for i := range entries {
		p := ps[rng.Intn(len(ps))]
		entries[i] = rosterEntry{pair: p, formula: mixedFormula(newFgen(rng, infos[p.system])), inPair: len(byPair[p])}
		byPair[p] = append(byPair[p], i)
	}
	return entries, byPair
}

// uploadProps are the propositions every generated document defines; the
// gen systems' environments are "<tree>:<history>", histories spelled in
// branch letters a, b, c.
var uploadProps = map[string]encode.PropDoc{
	"pa": {EnvHasSuffix: "a"},
	"pb": {EnvContains: "b"},
	"t1": {EnvContains: "T1:"},
}

// uploadInfo describes every generated document to the formula generator.
var uploadInfo = service.SystemInfo{Agents: gen.DefaultConfig().NumAgents, Props: []string{"pa", "pb", "t1"}}

// genDoc builds the k-th generated document of a seed: an internal/gen
// system with uploadProps, as the JSON an upload client would send.
func genDoc(seed int64, k int) []byte {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)*104_729 + 17))
	sys := gen.MustSystem(rng, gen.DefaultConfig())
	doc := encode.Encode(sys)
	doc.Props = uploadProps
	b, err := encode.Marshal(doc)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal generated document: %v", err))
	}
	return b
}

// mixedGen is small-mixed's client: Zipf-popular checks and batches over
// the shared roster, uploads of generated documents under fresh names
// (documents repeat, so some uploads alias an earlier session), and
// occasional queries on this client's own uploads. A client only queries
// uploads it has itself completed, so its request stream — and its
// verdicts — do not depend on how the clients interleave.
func mixedGen(_ *workload, seed int64, client int, infos map[string]service.SystemInfo) func() op {
	entries, byPair := roster(seed, infos)
	rng := clientRNG(seed, client+1)
	zipf := rand.NewZipf(rng, zipfS, zipfV, rosterSize-1)
	docs := make(map[int][]byte)
	var uploaded []string
	upAssigns := allAssigns(uploadInfo)
	sent := 0
	return func() op {
		k := sent
		sent++
		if k%uploadEvery == uploadEvery-1 {
			d := rng.Intn(docPool)
			if docs[d] == nil {
				docs[d] = genDoc(seed, d)
			}
			name := fmt.Sprintf("w%d-u%d", client, len(uploaded))
			uploaded = append(uploaded, name)
			return op{Kind: "upload", System: name, Doc: docs[d]}
		}
		n := 1
		kind := "check"
		if k%batchEvery == 0 {
			kind, n = "batch", 4+rng.Intn(13)
		}
		if len(uploaded) > 0 && rng.Intn(uploadTargets) == 0 {
			o := op{Kind: kind, System: uploaded[rng.Intn(len(uploaded))], Assign: upAssigns[rng.Intn(len(upAssigns))]}
			g := newFgen(rng, uploadInfo)
			for i := 0; i < n; i++ {
				o.Formulas = append(o.Formulas, mixedFormula(g))
			}
			return o
		}
		// A batch is the drawn entry and the entries after it in its
		// pair's roster, as kpaload batches a slice of its roster.
		e := entries[zipf.Uint64()]
		o := op{Kind: kind, System: e.system, Assign: e.assign}
		same := byPair[e.pair]
		for i := 0; i < n; i++ {
			o.Formulas = append(o.Formulas, entries[same[(e.inPair+i)%len(same)]].formula)
		}
		return o
	}
}

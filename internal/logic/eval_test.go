package logic

import (
	"errors"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/core"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// introEval builds an evaluator over the introduction's coin system with
// the post assignment and the proposition "heads".
func introEval(t *testing.T) (*Evaluator, *system.System) {
	t.Helper()
	sys := canon.IntroCoin()
	P := core.NewProbAssignment(sys, core.Post(sys))
	e := NewEvaluator(sys, P, map[string]system.Fact{"heads": canon.Heads()})
	return e, sys
}

func pointEnv(t *testing.T, sys *system.System, k int, env string) system.Point {
	t.Helper()
	tree := sys.Trees()[0]
	for _, p := range sys.PointsAtTime(tree, k) {
		if p.Env() == env {
			return p
		}
	}
	t.Fatalf("no point with env %q at time %d", env, k)
	return system.Point{}
}

func TestBooleanSemantics(t *testing.T) {
	e, sys := introEval(t)
	h := pointEnv(t, sys, 1, "heads")
	tl := pointEnv(t, sys, 1, "tails")

	cases := []struct {
		formula string
		at      system.Point
		want    bool
	}{
		{"heads", h, true},
		{"heads", tl, false},
		{"!heads", tl, true},
		{"heads & !heads", h, false},
		{"heads | !heads", tl, true},
		{"heads -> heads", tl, true},
		{"heads -> false", h, false},
		{"true", h, true},
		{"false", h, false},
	}
	for _, tt := range cases {
		got, err := e.Holds(MustParse(tt.formula), tt.at)
		if err != nil {
			t.Fatalf("%s: %v", tt.formula, err)
		}
		if got != tt.want {
			t.Errorf("%s at %v = %v, want %v", tt.formula, tt.at, got, tt.want)
		}
	}
}

func TestTemporalSemantics(t *testing.T) {
	e, sys := introEval(t)
	h0 := system.Point{Tree: sys.Trees()[0], Run: 0, Time: 0}
	h1, _ := h0.Next()
	isHeadsRun := h1.Env() == "heads"

	// X heads at time 0 iff this run lands heads.
	got, err := e.Holds(MustParse("X heads"), h0)
	if err != nil {
		t.Fatal(err)
	}
	if got != isHeadsRun {
		t.Errorf("X heads at time 0 = %v, want %v", got, isHeadsRun)
	}
	// X anything is false at the last point.
	if got, _ := e.Holds(MustParse("X true"), h1); got {
		t.Error("X true should fail at a final point")
	}
	// F heads at time 0 iff the run lands heads.
	if got, _ := e.Holds(MustParse("F heads"), h0); got != isHeadsRun {
		t.Error("F heads wrong")
	}
	// G !heads at time 0 iff the run lands tails.
	if got, _ := e.Holds(MustParse("G !heads"), h0); got == isHeadsRun {
		t.Error("G !heads wrong")
	}
	// true U heads ≡ F heads everywhere.
	fh, _ := e.Extension(MustParse("F heads"))
	uh, _ := e.Extension(MustParse("true U heads"))
	if !fh.Equal(uh) {
		t.Error("F φ != true U φ")
	}
	// φ U ψ with ψ immediately true holds regardless of φ.
	if got, _ := e.Holds(MustParse("false U true"), h0); !got {
		t.Error("false U true should hold (ψ now)")
	}
}

func TestUntilStepwise(t *testing.T) {
	// Three-step single-run system: a → b → c. Check p U q semantics along
	// the run.
	tb := system.NewTree("line", system.NewGlobalState("a", "x:a"))
	n1 := tb.Child(0, rat.One, system.NewGlobalState("b", "x:b"))
	tb.Child(n1, rat.One, system.NewGlobalState("c", "x:c"))
	sys := system.MustNew(1, tb.MustBuild())
	isEnv := func(name string) system.Fact {
		return system.EnvFact(name, func(e string) bool { return e == name })
	}
	e := NewEvaluator(sys, nil, map[string]system.Fact{
		"a": isEnv("a"), "b": isEnv("b"), "c": isEnv("c"),
	})
	tree := sys.Trees()[0]
	at := func(k int) system.Point { return system.Point{Tree: tree, Run: 0, Time: k} }

	// (a|b) U c holds at 0: a,b hold until c.
	if got, _ := e.Holds(MustParse("(a | b) U c"), at(0)); !got {
		t.Error("(a|b) U c should hold at 0")
	}
	// a U c fails at 0: at time 1, neither a nor c.
	if got, _ := e.Holds(MustParse("a U c"), at(0)); got {
		t.Error("a U c should fail at 0")
	}
	// a U b holds at 0, b U c at 1, c at 2.
	if got, _ := e.Holds(MustParse("a U b"), at(0)); !got {
		t.Error("a U b should hold at 0")
	}
	// G on finite runs: G c holds at 2 (last point).
	if got, _ := e.Holds(MustParse("G c"), at(2)); !got {
		t.Error("G c should hold at the final point")
	}
	if got, _ := e.Holds(MustParse("G (a | b | c)"), at(0)); !got {
		t.Error("G over the whole run should hold")
	}
}

func TestKnowledgeSemantics(t *testing.T) {
	e, sys := introEval(t)
	h := pointEnv(t, sys, 1, "heads")

	// p3 saw the coin: K3 heads at h; p1 did not: !K1 heads, but
	// K1 (heads | !heads).
	cases := []struct {
		formula string
		want    bool
	}{
		{"K3 heads", true},
		{"K1 heads", false},
		{"K2 heads", false},
		{"K1 (heads | !heads)", true},
		{"K1 !K3 heads", false}, // p1 considers possible a point where p3 knows heads... (it holds at h!)
	}
	for _, tt := range cases[:4] {
		got, err := e.Holds(MustParse(tt.formula), h)
		if err != nil {
			t.Fatalf("%s: %v", tt.formula, err)
		}
		if got != tt.want {
			t.Errorf("%s at h = %v, want %v", tt.formula, got, tt.want)
		}
	}
	// Knowledge axioms (S5 properties on the equivalence relation):
	// K φ → φ (truth), K φ → K K φ (positive introspection).
	phi := MustParse("heads")
	kphi := K(canon.P3, phi)
	truthAx := Implies(kphi, phi)
	introAx := Implies(kphi, K(canon.P3, kphi))
	for _, ax := range []Formula{truthAx, introAx} {
		ok, err := e.Valid(ax)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("axiom %s not valid", ax)
		}
	}
}

func TestProbabilitySemantics(t *testing.T) {
	e, sys := introEval(t)
	h := pointEnv(t, sys, 1, "heads")

	cases := []struct {
		formula string
		want    bool
	}{
		{"Pr1(heads) >= 1/2", true},
		{"Pr1(heads) >= 0.51", false},
		{"Pr1(heads) <= 1/2", true},
		{"Pr1(heads) <= 0.49", false},
		{"K1^1/2 heads", true},
		{"K1^0.51 heads", false},
		{"Pr3(heads) >= 1", true}, // p3 saw heads; its post space is {h}
	}
	for _, tt := range cases {
		got, err := e.Holds(MustParse(tt.formula), h)
		if err != nil {
			t.Fatalf("%s: %v", tt.formula, err)
		}
		if got != tt.want {
			t.Errorf("%s at h = %v, want %v", tt.formula, got, tt.want)
		}
	}

	// Consistency axiom: K_i φ -> Pr_i(φ) >= 1 is valid under post.
	ax := Implies(MustParse("K1 heads"), MustParse("Pr1(heads) >= 1"))
	ok, err := e.Valid(ax)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("consistency axiom fails under the post assignment")
	}
}

func TestFutAssignmentViaLogic(t *testing.T) {
	// Under P^fut, K1(Pr1(heads)>=1 | Pr1(heads)<=0) holds at time 1.
	sys := canon.IntroCoin()
	P := core.NewProbAssignment(sys, core.Future(sys))
	e := NewEvaluator(sys, P, map[string]system.Fact{"heads": canon.Heads()})
	h := pointEnv(t, sys, 1, "heads")

	f := MustParse("K1 ((Pr1(heads) >= 1) | (Pr1(heads) <= 0))")
	got, err := e.Holds(f, h)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("P^fut: K1(Pr=1 ∨ Pr=0) should hold")
	}
	// But not under post.
	e2, _ := introEval(t)
	got2, err := e2.Holds(f, h)
	if err != nil {
		t.Fatal(err)
	}
	if got2 {
		t.Error("P^post: K1(Pr=1 ∨ Pr=0) should fail")
	}
}

func TestCommonKnowledge(t *testing.T) {
	e, sys := introEval(t)
	h := pointEnv(t, sys, 1, "heads")
	tautology := MustParse("heads | !heads")
	g12 := "C{1,2}"

	// Common knowledge of a tautology holds everywhere.
	ok, err := e.Valid(MustParse(g12 + " (heads | !heads)"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("C of a tautology should be valid")
	}
	// heads is not even known to p1, so certainly not common knowledge.
	got, err := e.Holds(MustParse("C{1,3} heads"), h)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("C{1,3} heads should fail (p1 does not know heads)")
	}
	// Fixed point axiom: C φ ≡ E(φ ∧ C φ).
	cf := Common([]system.AgentID{0, 1}, tautology)
	fix := Iff(cf, Everyone([]system.AgentID{0, 1}, And(tautology, cf)))
	ok, err = e.Valid(fix)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("fixed point axiom fails")
	}
	// C implies E implies K.
	chain := Implies(MustParse("C{1,2} (heads | !heads)"),
		MustParse("E{1,2} (heads | !heads)"))
	if ok, _ := e.Valid(chain); !ok {
		t.Error("C → E fails")
	}
	_ = h
}

func TestProbabilisticCommonKnowledge(t *testing.T) {
	e, sys := introEval(t)
	_ = sys

	// The run-fact "the coin lands heads (now or later)" has probability
	// 1/2 for both blind agents at every point: E^{1/2} and C^{1/2} hold
	// everywhere; C^{0.51} fails. (The point-fact "heads" would not do:
	// it is false at time 0, where its probability is 0.)
	okE, err := e.Valid(MustParse("E{1,2}^1/2 (F heads)"))
	if err != nil {
		t.Fatal(err)
	}
	if !okE {
		t.Error("E^1/2 (F heads) should be valid under post")
	}
	okC, err := e.Valid(MustParse("C{1,2}^1/2 (F heads)"))
	if err != nil {
		t.Fatal(err)
	}
	if !okC {
		t.Error("C^1/2 (F heads) should be valid under post")
	}
	okHigh, err := e.Valid(MustParse("C{1,2}^0.51 (F heads)"))
	if err != nil {
		t.Fatal(err)
	}
	if okHigh {
		t.Error("C^0.51 (F heads) should not be valid")
	}
	// Fixed point property: C^α φ implies E^α(φ ∧ C^α φ).
	alpha := rat.Half
	g := []system.AgentID{0, 1}
	phi := MustParse("F heads")
	cf := CommonPr(g, phi, alpha)
	fix := Implies(cf, EveryonePr(g, And(phi, cf), alpha))
	ok, err := e.Valid(fix)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("probabilistic fixed point fails")
	}
}

func TestEvaluatorErrors(t *testing.T) {
	e, sys := introEval(t)
	h := pointEnv(t, sys, 1, "heads")

	if _, err := e.Holds(MustParse("nosuch"), h); !errors.Is(err, ErrUnknownProp) {
		t.Errorf("unknown prop err = %v", err)
	}
	if _, err := e.Holds(MustParse("K9 heads"), h); !errors.Is(err, ErrBadAgent) {
		t.Errorf("bad agent err = %v", err)
	}
	// Evaluator without probability assignment.
	noP := NewEvaluator(sys, nil, map[string]system.Fact{"heads": canon.Heads()})
	if _, err := noP.Holds(MustParse("Pr1(heads) >= 1/2"), h); !errors.Is(err, ErrNoProbability) {
		t.Errorf("no probability err = %v", err)
	}
	// But pure knowledge works without one.
	if _, err := noP.Holds(MustParse("K3 heads"), h); err != nil {
		t.Errorf("knowledge without probability: %v", err)
	}
}

func TestCounterExamplesAndDefineProp(t *testing.T) {
	e, sys := introEval(t)
	ces, err := e.CounterExamples(MustParse("heads"))
	if err != nil {
		t.Fatal(err)
	}
	// heads fails at start (two time-0 points... they share the root node:
	// two points, one per run) and at tails: 3 counterexample points.
	if len(ces) != 3 {
		t.Errorf("counterexamples = %d, want 3", len(ces))
	}
	e.DefineProp("heads", system.TrueFact)
	ok, err := e.Valid(MustParse("heads"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("DefineProp did not invalidate memo")
	}
	_ = sys
}

func TestFactConversion(t *testing.T) {
	e, sys := introEval(t)
	fact, err := e.Fact(MustParse("K3 heads"))
	if err != nil {
		t.Fatal(err)
	}
	h := pointEnv(t, sys, 1, "heads")
	tl := pointEnv(t, sys, 1, "tails")
	if !fact.Holds(h) || fact.Holds(tl) {
		t.Error("Fact conversion wrong")
	}
}

// TestAsyncNonMeasurableInLogic checks the Section 7 statement in the
// logic: over the async system, P^post ⊨ K1^[2^-10, 1-2^-10] lastHeads at
// post-toss points, and ¬K1^{1/2} lastHeads, while the clocked prior-style
// spaces give K1^{1/2}.
func TestAsyncNonMeasurableInLogic(t *testing.T) {
	const n = 10
	sys := canon.AsyncCoins(n)
	tree := sys.Trees()[0]
	post := core.NewProbAssignment(sys, core.Post(sys))
	e := NewEvaluator(sys, post, map[string]system.Fact{"lastHeads": canon.LastTossHeads()})
	c := system.Point{Tree: tree, Run: 0, Time: 1}

	inner := rat.Pow(rat.Half, n)
	kint := KInterval(canon.P1, Prop("lastHeads"), inner, rat.One.Sub(inner))
	ok, err := e.Holds(kint, c)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("K1^[2^-10, 1-2^-10] lastHeads should hold under post")
	}
	if ok, _ := e.Holds(MustParse("K1^1/2 lastHeads"), c); ok {
		t.Error("K1^1/2 lastHeads should fail under post")
	}
	// Under the S² assignment (time-k slices — what p2's knowledge gives):
	// the clocked agent p2 knows Pr = 1/2.
	s2 := core.NewProbAssignment(sys, core.Opponent(sys, canon.P2))
	e2 := NewEvaluator(sys, s2, map[string]system.Fact{"lastHeads": canon.LastTossHeads()})
	if ok, err := e2.Holds(MustParse("K1^1/2 lastHeads"), c); err != nil || !ok {
		t.Errorf("K1^1/2 lastHeads under S² = %v, %v; want true", ok, err)
	}
}

func TestEvaluatorReset(t *testing.T) {
	e, _ := introEval(t)
	f := MustParse("K1^1/2 heads")
	want, err := e.Valid(f)
	if err != nil {
		t.Fatal(err)
	}
	if e.MemoLen() == 0 {
		t.Fatal("evaluation memoized nothing")
	}
	e.Reset()
	if e.MemoLen() != 0 {
		t.Fatalf("MemoLen after Reset = %d, want 0", e.MemoLen())
	}
	// Propositions survive a Reset, so the same formula still evaluates.
	got, err := e.Valid(f)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("verdict changed across Reset: %v -> %v", want, got)
	}
}

// TestPrMemoBoundedByReset checks that the Pr verdict memo counts toward
// MemoWords and that Reset drops it, so a pool's memo cap bounds it as it
// bounds the extension memo.
func TestPrMemoBoundedByReset(t *testing.T) {
	e, _ := introEval(t)
	// Under post, p1's spaces after the toss weigh heads against tails:
	// the inner pattern of heads is neither empty nor full, so the verdict
	// takes exact arithmetic and lands in the memo.
	if _, err := e.Valid(MustParse("K1^1/2 heads")); err != nil {
		t.Fatal(err)
	}
	if ext := e.MemoLen() * e.idx.Words(); e.MemoWords() <= ext {
		t.Fatalf("MemoWords = %d, no more than the %d words of extensions: the verdict memo is not counted", e.MemoWords(), ext)
	}
	e.Reset()
	if e.MemoWords() != 0 {
		t.Fatalf("MemoWords after Reset = %d, want 0", e.MemoWords())
	}
}

// TestPrMemoKeyedByAgent asks the same threshold question of two agents
// whose space tables both number a two-run space 1 after the toss, with
// the same run pattern but different probabilities: the verdict memo must
// keep their answers apart. Runs r0, r1, r2 have probabilities 1/2, 1/3
// and 1/6; after the toss p1 confuses r0 with r1 and p2 confuses r0 with
// r2, so "r0" has probability 3/5 for p1 and 3/4 for p2.
func TestPrMemoKeyedByAgent(t *testing.T) {
	b := system.NewTree("t", system.NewGlobalState("root", "a0", "b0"))
	b.Child(0, rat.Half, system.NewGlobalState("r0", "a1", "b1"))
	b.Child(0, rat.New(1, 3), system.NewGlobalState("r1", "a1", "b2"))
	b.Child(0, rat.New(1, 6), system.NewGlobalState("r2", "a2", "b1"))
	sys := system.MustNew(2, b.MustBuild())
	r0 := system.EnvFact("r0", func(env string) bool { return env == "r0" })
	e := NewEvaluator(sys, core.NewProbAssignment(sys, core.Post(sys)), map[string]system.Fact{"r0": r0})
	for _, tc := range []struct {
		f    string
		want int
	}{
		{"Pr1(r0) >= 3/4", 0},
		{"Pr2(r0) >= 3/4", 2}, // r0 and r2 after the toss
	} {
		ext, err := e.DenseExtension(MustParse(tc.f))
		if err != nil {
			t.Fatal(err)
		}
		if ext.Len() != tc.want {
			t.Errorf("%s holds at %d points, want %d", tc.f, ext.Len(), tc.want)
		}
	}
}

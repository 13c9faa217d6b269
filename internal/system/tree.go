// Package system implements the Halpern–Tuttle model of computation
// (JACM 40(4) 1993, Sections 2–3): systems of runs over global states,
// points, labelled computation trees with transition probabilities, and the
// knowledge relation between points.
//
// A system is a set of runs; a run is a map from (natural-number) times to
// global states; a global state is a tuple of an environment state and one
// local state per agent. Factoring out nondeterminism with a type-1
// adversary turns the system into a collection of labelled computation
// trees, one per adversary, whose edge labels are transition probabilities;
// the probability of a finite run is the product of the labels along it.
//
// This package represents finite-horizon trees explicitly. Runs are maximal
// root-to-leaf paths. A point is a (run, time) pair; distinct points may
// share a global state (two runs through the same tree node), which is
// exactly the distinction the paper needs between facts about points, facts
// about runs and facts about global states.
package system

import (
	"fmt"
	"strings"

	"kpa/internal/rat"
)

// AgentID identifies an agent p_i by index. Agents are numbered from 0.
type AgentID int

// LocalState is an agent's local state. Two points look alike to agent i
// exactly when i's local states at them are equal strings.
type LocalState string

// GlobalState is a tuple (s_e, s_1, …, s_n): the environment's state plus
// one local state per agent.
type GlobalState struct {
	Env    string
	Locals []LocalState
}

// NewGlobalState constructs a global state from an environment component and
// agent local states. The locals slice is copied.
func NewGlobalState(env string, locals ...LocalState) GlobalState {
	ls := make([]LocalState, len(locals))
	copy(ls, locals)
	return GlobalState{Env: env, Locals: ls}
}

// Local returns agent i's local state.
func (g GlobalState) Local(i AgentID) LocalState { return g.Locals[i] }

// NumAgents returns the number of agents in the global state.
func (g GlobalState) NumAgents() int { return len(g.Locals) }

// Key returns a canonical string encoding of the global state, usable as a
// map key. Distinct global states have distinct keys.
func (g GlobalState) Key() string {
	var b strings.Builder
	b.WriteString(g.Env)
	for _, l := range g.Locals {
		b.WriteByte(0)
		b.WriteString(string(l))
	}
	return b.String()
}

// Equal reports whether g and h are the same global state.
func (g GlobalState) Equal(h GlobalState) bool {
	if g.Env != h.Env || len(g.Locals) != len(h.Locals) {
		return false
	}
	for i := range g.Locals {
		if g.Locals[i] != h.Locals[i] {
			return false
		}
	}
	return true
}

func (g GlobalState) String() string {
	parts := make([]string, 0, len(g.Locals)+1)
	parts = append(parts, "env="+g.Env)
	for i, l := range g.Locals {
		parts = append(parts, fmt.Sprintf("p%d=%s", i+1, l))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// NodeID identifies a node within one tree.
type NodeID int

// Edge is a labelled transition of a computation tree: the system moves to
// Child with probability Prob.
type Edge struct {
	Child NodeID
	Prob  rat.Rat
}

// Node is a node of a computation tree. Each node corresponds to a global
// state reached after a particular finite history; the tree structure itself
// plays the role of the paper's technical assumption that the environment
// component encodes the adversary and the past history.
type Node struct {
	ID     NodeID
	State  GlobalState
	Time   int    // depth in the tree: the node is reached at this time
	Parent NodeID // -1 for the root
	Edges  []Edge // outgoing transitions; empty for leaves
}

// IsLeaf reports whether the node has no outgoing transitions.
func (n *Node) IsLeaf() bool { return len(n.Edges) == 0 }

// Tree is a labelled computation tree T_A for one type-1 adversary A: the
// purely probabilistic system that remains after the adversary has resolved
// every nondeterministic choice. It doubles as the probability space
// (R_A, X_A, μ_A) on its runs: the tree is finite, so every set of runs is
// measurable, and the probability of a run is the product of the transition
// probabilities along it.
type Tree struct {
	// Adversary names the type-1 adversary that generated this tree
	// (for example an input value, or a scheduler description).
	Adversary string

	nodes    []Node
	runs     [][]NodeID // maximal root-to-leaf paths, by run index
	runProbs []rat.Rat  // probability of each run
	depth    int        // maximum node time

	// uniform is set when every run has the same probability (a broom of
	// equiprobable branches, the shape scale-tier systems use). Prob then
	// reduces a run-set sum to one popcount and one multiplication instead
	// of |set| exact-rational additions.
	uniform     bool
	uniformProb rat.Rat
}

// NumNodes returns the number of nodes in the tree.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Node returns the node with the given ID.
func (t *Tree) Node(id NodeID) *Node { return &t.nodes[id] }

// Root returns the tree's root node.
func (t *Tree) Root() *Node { return &t.nodes[0] }

// NumRuns returns the number of (maximal) runs of the tree.
func (t *Tree) NumRuns() int { return len(t.runs) }

// Run returns run r as the sequence of nodes it passes through; Run(r)[k] is
// the node at time k. The returned slice must not be modified.
func (t *Tree) Run(r int) []NodeID { return t.runs[r] }

// RunLen returns the number of points on run r (its leaf time plus one).
func (t *Tree) RunLen(r int) int { return len(t.runs[r]) }

// RunProb returns μ_A(r), the product of transition probabilities along run r.
func (t *Tree) RunProb(r int) rat.Rat { return t.runProbs[r] }

// Depth returns the maximum time of any node in the tree.
func (t *Tree) Depth() int { return t.depth }

// NodeAt returns the node run r passes through at time k.
func (t *Tree) NodeAt(r, k int) *Node { return &t.nodes[t.runs[r][k]] }

// RunsThroughNode returns the set of runs passing through the given node.
func (t *Tree) RunsThroughNode(id NodeID) RunSet {
	rs := NewRunSet(len(t.runs))
	for r, path := range t.runs {
		n := t.Node(id)
		if n.Time < len(path) && path[n.Time] == id {
			rs.Add(r)
		}
	}
	return rs
}

// Prob returns the probability of a set of runs: μ_A(R) = Σ_{r∈R} μ_A(r).
// Over a finite tree every run set is measurable.
func (t *Tree) Prob(rs RunSet) rat.Rat {
	if t.uniform {
		n := rs.Len()
		switch n {
		case 0:
			return rat.Zero
		case 1:
			return t.uniformProb
		}
		return rat.FromInt(int64(n)).Mul(t.uniformProb)
	}
	acc := rat.Zero
	rs.Iterate(func(r int) {
		acc = acc.Add(t.runProbs[r])
	})
	return acc
}

// ProbRuns is Prob for a list of distinct runs: callers holding a run list
// sized to their sample, not to the tree, avoid a tree-sized RunSet.
func (t *Tree) ProbRuns(runs []int) rat.Rat {
	if t.uniform {
		switch len(runs) {
		case 0:
			return rat.Zero
		case 1:
			return t.uniformProb
		}
		return rat.FromInt(int64(len(runs))).Mul(t.uniformProb)
	}
	acc := rat.Zero
	for _, r := range runs {
		acc = acc.Add(t.runProbs[r])
	}
	return acc
}

// AllRuns returns the set of all runs of the tree.
func (t *Tree) AllRuns() RunSet {
	rs := NewRunSet(len(t.runs))
	for r := range t.runs {
		rs.Add(r)
	}
	return rs
}

// TreeBuilder constructs a Tree incrementally. Obtain one with NewTree, add
// nodes with Child, and finish with Build, which validates that the labels
// on every internal node's outgoing edges are positive and sum to one.
type TreeBuilder struct {
	tree *Tree
}

// NewTree starts building a computation tree for the named type-1 adversary,
// rooted at the given global state (time 0).
func NewTree(adversary string, root GlobalState) *TreeBuilder {
	t := &Tree{Adversary: adversary}
	t.nodes = append(t.nodes, Node{ID: 0, State: root, Time: 0, Parent: -1})
	return &TreeBuilder{tree: t}
}

// Child adds a child of parent reached with the given transition probability
// and global state, returning the new node's ID.
func (b *TreeBuilder) Child(parent NodeID, prob rat.Rat, state GlobalState) NodeID {
	t := b.tree
	id := NodeID(len(t.nodes))
	p := &t.nodes[parent]
	childTime := p.Time + 1
	p.Edges = append(p.Edges, Edge{Child: id, Prob: prob})
	t.nodes = append(t.nodes, Node{ID: id, State: state, Time: childTime, Parent: parent})
	return id
}

// Build validates the tree and computes its runs and run probabilities.
// The builder must not be reused afterwards.
func (b *TreeBuilder) Build() (*Tree, error) {
	t := b.tree
	b.tree = nil
	if t == nil {
		return nil, fmt.Errorf("tree %q: builder already consumed", "")
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.Time > t.depth {
			t.depth = n.Time
		}
		if len(n.Edges) == 0 {
			continue
		}
		sum := rat.Zero
		for _, e := range n.Edges {
			if e.Prob.Sign() <= 0 {
				return nil, fmt.Errorf("tree %q: node %d has non-positive transition probability %s",
					t.Adversary, n.ID, e.Prob)
			}
			sum = sum.Add(e.Prob)
		}
		if !sum.IsOne() {
			return nil, fmt.Errorf("tree %q: node %d transition probabilities sum to %s, want 1",
				t.Adversary, n.ID, sum)
		}
	}
	t.enumerateRuns()
	return t, nil
}

// MustBuild is Build but panics on error; intended for tests and examples
// whose trees are constructed from literals.
func (b *TreeBuilder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Tree) enumerateRuns() {
	var path []NodeID
	var walk func(id NodeID, prob rat.Rat)
	walk = func(id NodeID, prob rat.Rat) {
		path = append(path, id)
		n := &t.nodes[id]
		if n.IsLeaf() {
			run := make([]NodeID, len(path))
			copy(run, path)
			t.runs = append(t.runs, run)
			t.runProbs = append(t.runProbs, prob)
		} else {
			for _, e := range n.Edges {
				// Probability-1 edges (deterministic chains) keep the
				// parent's Rat value instead of allocating a product; in a
				// broom-shaped tree every run then shares one value.
				if e.Prob.IsOne() {
					walk(e.Child, prob)
				} else {
					walk(e.Child, prob.Mul(e.Prob))
				}
			}
		}
		path = path[:len(path)-1]
	}
	walk(0, rat.One)
	// Detect uniform run distributions for Prob's fast path. Runs that
	// inherited the parent's value through the probability-1 shortcut above
	// share one Rat, so the identity compare settles the common broom shape
	// without touching big.Rat.
	if len(t.runProbs) > 0 {
		t.uniform = true
		t.uniformProb = t.runProbs[0]
		for _, p := range t.runProbs[1:] {
			if p != t.uniformProb && !p.Equal(t.uniformProb) {
				t.uniform = false
				break
			}
		}
	}
}

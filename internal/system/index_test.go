package system

import (
	"sync"
	"testing"

	"kpa/internal/rat"
)

// twoTreeSystem builds a two-tree, two-agent system with runs of different
// lengths so the index has non-trivial run ranges to get right.
func twoTreeSystem(t *testing.T) *System {
	t.Helper()
	tb1 := NewTree("alpha", gs("a0", "x:0", "y:0"))
	h := tb1.Child(0, rat.Half, gs("a-h", "x:h", "y:1"))
	tb1.Child(0, rat.Half, gs("a-t", "x:t", "y:1"))
	tb1.Child(h, rat.One, gs("a-hh", "x:hh", "y:2"))

	tb2 := NewTree("beta", gs("b0", "x:0b", "y:0b"))
	tb2.Child(0, rat.One, gs("b1", "x:1b", "y:1b"))

	sys, err := New(2, tb1.MustBuild(), tb2.MustBuild())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys
}

func TestIndexRoundTrip(t *testing.T) {
	sys := twoTreeSystem(t)
	idx := sys.Index()

	if idx.NumPoints() != sys.Points().Len() {
		t.Fatalf("NumPoints = %d, want %d", idx.NumPoints(), sys.Points().Len())
	}
	// Every point has an ID, PointAt inverts it, and IDs are dense and
	// distinct.
	seen := make(map[int]bool)
	for p := range sys.Points() {
		id, ok := idx.ID(p)
		if !ok {
			t.Fatalf("no ID for %v", p)
		}
		if id < 0 || id >= idx.NumPoints() {
			t.Fatalf("ID %d out of range for %v", id, p)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
		if back := idx.PointAt(id); back != p {
			t.Fatalf("PointAt(%d) = %v, want %v", id, back, p)
		}
	}
	// Foreign points resolve to no ID.
	other := twoTreeSystem(t)
	for p := range other.Points() {
		if _, ok := idx.ID(p); ok {
			t.Fatal("resolved an ID for a point of a different system")
		}
		break
	}
	// Out-of-range coordinates resolve to no ID.
	tree := sys.Trees()[0]
	if _, ok := idx.ID(Point{Tree: tree, Run: 0, Time: 99}); ok {
		t.Error("resolved an ID for an out-of-range time")
	}
	if _, ok := idx.ID(Point{Tree: tree, Run: 99, Time: 0}); ok {
		t.Error("resolved an ID for an out-of-range run")
	}
}

func TestIndexRunRangesContiguous(t *testing.T) {
	sys := twoTreeSystem(t)
	idx := sys.Index()

	total := 0
	idx.EachRun(func(tree *Tree, run, start, n int) {
		if n != tree.RunLen(run) {
			t.Fatalf("run %s/%d: n = %d, want %d", tree.Adversary, run, n, tree.RunLen(run))
		}
		for k := 0; k < n; k++ {
			p := idx.PointAt(start + k)
			want := Point{Tree: tree, Run: run, Time: k}
			if p != want {
				t.Fatalf("PointAt(%d) = %v, want %v", start+k, p, want)
			}
		}
		total += n
	})
	if total != idx.NumPoints() {
		t.Fatalf("EachRun covered %d points, want %d", total, idx.NumPoints())
	}
}

func TestCellPartition(t *testing.T) {
	sys := twoTreeSystem(t)
	idx := sys.Index()

	for _, agent := range []AgentID{0, 1} {
		cells := idx.Cells(agent)
		// Cells are numbered in first-occurrence order by dense ID, and
		// every cell occurs.
		next := 0
		for id := 0; id < idx.NumPoints(); id++ {
			k := cells.CellOf(id)
			if k < 0 || k > next {
				t.Fatalf("agent %d: point %d in cell %d, next new cell is %d", agent, id, k, next)
			}
			if k == next {
				next++
			}
		}
		if next != cells.NumCells() {
			t.Fatalf("agent %d: %d cells occur, NumCells is %d", agent, next, cells.NumCells())
		}
		// CellOf agrees with local-state equality.
		for a := 0; a < idx.NumPoints(); a++ {
			for b := 0; b < idx.NumPoints(); b++ {
				same := idx.PointAt(a).Local(agent) == idx.PointAt(b).Local(agent)
				if same != (cells.CellOf(a) == cells.CellOf(b)) {
					t.Fatalf("agent %d: cell relation disagrees with ~ at (%d,%d)", agent, a, b)
				}
			}
		}
	}
}

func TestDenseSetAlgebra(t *testing.T) {
	sys := twoTreeSystem(t)
	idx := sys.Index()
	n := idx.NumPoints()

	a := idx.NewDense()
	b := idx.NewDense()
	for id := 0; id < n; id++ {
		if id%2 == 0 {
			a.Add(id)
		}
		if id%3 == 0 {
			b.Add(id)
		}
	}

	check := func(name string, got *DenseSet, want func(id int) bool) {
		t.Helper()
		for id := 0; id < n; id++ {
			if got.Contains(id) != want(id) {
				t.Errorf("%s: disagreement at %d", name, id)
			}
		}
	}
	check("union", a.Union(b), func(id int) bool { return id%2 == 0 || id%3 == 0 })
	check("intersect", a.Intersect(b), func(id int) bool { return id%6 == 0 })
	check("minus", a.Minus(b), func(id int) bool { return id%2 == 0 && id%3 != 0 })
	check("complement", a.Complement(), func(id int) bool { return id%2 != 0 })

	// Allocating ops left their operands alone.
	check("a unchanged", a, func(id int) bool { return id%2 == 0 })
	check("b unchanged", b, func(id int) bool { return id%3 == 0 })

	// Complement must not set tail bits past NumPoints: complementing twice
	// and unioning with the complement must reproduce a and the full set.
	if !a.Complement().Complement().Equal(a) {
		t.Error("double complement differs (tail bits leaked)")
	}
	full := a.Union(a.Complement())
	if !full.Equal(idx.FullDense()) || full.Len() != n {
		t.Errorf("a ∪ ¬a has %d elements, want %d", full.Len(), n)
	}
}

func TestDenseSetIterateAndConvert(t *testing.T) {
	sys := twoTreeSystem(t)
	idx := sys.Index()

	ps := NewPointSet()
	for p := range sys.Points() {
		if p.Time == 0 {
			ps.Add(p)
		}
	}
	ds := idx.DenseOf(ps)
	if ds.Len() != ps.Len() {
		t.Fatalf("DenseOf lost points: %d vs %d", ds.Len(), ps.Len())
	}
	var ids []int
	ds.Iterate(func(id int) { ids = append(ids, id) })
	if len(ids) != ds.Len() {
		t.Fatalf("Iterate visited %d ids, want %d", len(ids), ds.Len())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("Iterate not in increasing ID order")
		}
	}
	back := ds.PointSet()
	if !back.Equal(ps) {
		t.Fatal("PointSet round trip lost points")
	}
	for _, p := range ds.Sorted() {
		if !ps.Contains(p) {
			t.Fatalf("Sorted produced foreign point %v", p)
		}
	}
	if !ds.ContainsPoint(idx.PointAt(ids[0])) {
		t.Error("ContainsPoint false for a member")
	}
}

// TestIndexConcurrent exercises the lazy builders from many goroutines: all
// must observe the same index and partitions. Run under -race.
func TestIndexConcurrent(t *testing.T) {
	sys := twoTreeSystem(t)
	var wg sync.WaitGroup
	indexes := make([]*Index, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			idx := sys.Index()
			indexes[g] = idx
			for _, agent := range []AgentID{0, 1} {
				cells := idx.Cells(agent)
				for id := 0; id < idx.NumPoints(); id++ {
					cells.CellOf(id)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 16; g++ {
		if indexes[g] != indexes[0] {
			t.Fatal("goroutines observed distinct indexes")
		}
	}
}

package system

import "math/bits"

// DenseSet is a set of points of one indexed system, backed by a []uint64
// bitset over the system's dense point IDs (see Index). All set algebra is
// O(words) word-wise arithmetic, the same style as RunSet; a few thousand
// points fit in a few dozen words, so unions, intersections and equality
// checks inside model-checking fixpoints cost nanoseconds instead of
// rebuilding hash maps.
//
// The allocating operations (Union, Intersect, Minus, Complement, Clone)
// return fresh sets and never mutate their operands, so DenseSets handed
// out of caches can be shared immutably. The in-place operations (Add,
// Remove, UnionWith, IntersectWith, MinusWith) must only be applied to sets
// the caller owns exclusively.
//
// Mixing sets from different indexes is a programming error; operations
// panic on a universe mismatch rather than computing garbage.
type DenseSet struct {
	idx  *Index
	bits []uint64
}

// NewDense returns an empty set over the index's points.
func (x *Index) NewDense() *DenseSet {
	return &DenseSet{idx: x, bits: make([]uint64, x.words)}
}

// FullDense returns the set of all points of the index.
func (x *Index) FullDense() *DenseSet {
	s := x.NewDense()
	for i := range s.bits {
		s.bits[i] = ^uint64(0)
	}
	s.clearTail()
	return s
}

// DenseOf converts a PointSet into a DenseSet over the index. Points not in
// the indexed system are ignored.
func (x *Index) DenseOf(ps PointSet) *DenseSet {
	s := x.NewDense()
	for p := range ps {
		if id, ok := x.ID(p); ok {
			s.bits[id/64] |= 1 << (id % 64)
		}
	}
	return s
}

// clearTail zeroes the bits beyond the universe in the last word.
func (s *DenseSet) clearTail() {
	if rem := s.idx.NumPoints() % 64; rem != 0 && len(s.bits) > 0 {
		s.bits[len(s.bits)-1] &= (1 << rem) - 1
	}
}

func (s *DenseSet) check(t *DenseSet) {
	if s.idx != t.idx {
		panic("system: DenseSet operands built over different indexes")
	}
}

// Index returns the index the set ranges over.
func (s *DenseSet) Index() *Index { return s.idx }

// Words returns the number of backing words, the unit pools account
// memoized extensions in.
func (s *DenseSet) Words() int { return len(s.bits) }

// Add inserts the point with dense ID id.
func (s *DenseSet) Add(id int) { s.bits[id/64] |= 1 << (id % 64) }

// Remove deletes the point with dense ID id.
func (s *DenseSet) Remove(id int) { s.bits[id/64] &^= 1 << (id % 64) }

// Contains reports whether the point with dense ID id is in the set.
func (s *DenseSet) Contains(id int) bool { return s.bits[id/64]&(1<<(id%64)) != 0 }

// ContainsPoint reports whether p is in the set; foreign points are never
// members.
func (s *DenseSet) ContainsPoint(p Point) bool {
	id, ok := s.idx.ID(p)
	return ok && s.Contains(id)
}

// Len returns the number of points in the set (its population count).
func (s *DenseSet) Len() int {
	c := 0
	for _, w := range s.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set is empty.
func (s *DenseSet) IsEmpty() bool {
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *DenseSet) Clone() *DenseSet {
	c := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	copy(c.bits, s.bits)
	return c
}

// Union returns s ∪ t as a fresh set.
func (s *DenseSet) Union(t *DenseSet) *DenseSet {
	s.check(t)
	u := s.Clone()
	for i := range u.bits {
		u.bits[i] |= t.bits[i]
	}
	return u
}

// Intersect returns s ∩ t as a fresh set.
func (s *DenseSet) Intersect(t *DenseSet) *DenseSet {
	s.check(t)
	u := s.Clone()
	for i := range u.bits {
		u.bits[i] &= t.bits[i]
	}
	return u
}

// Minus returns s \ t as a fresh set.
func (s *DenseSet) Minus(t *DenseSet) *DenseSet {
	s.check(t)
	u := s.Clone()
	for i := range u.bits {
		u.bits[i] &^= t.bits[i]
	}
	return u
}

// Complement returns the complement of s within the index's universe.
func (s *DenseSet) Complement() *DenseSet {
	u := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	for i := range u.bits {
		u.bits[i] = ^s.bits[i]
	}
	u.clearTail()
	return u
}

// UnionWith adds every point of t to s in place. The caller must own s.
func (s *DenseSet) UnionWith(t *DenseSet) {
	s.check(t)
	for i := range s.bits {
		s.bits[i] |= t.bits[i]
	}
}

// IntersectWith removes from s, in place, every point not in t. The caller
// must own s.
func (s *DenseSet) IntersectWith(t *DenseSet) {
	s.check(t)
	for i := range s.bits {
		s.bits[i] &= t.bits[i]
	}
}

// MinusWith removes every point of t from s in place. The caller must own s.
func (s *DenseSet) MinusWith(t *DenseSet) {
	s.check(t)
	for i := range s.bits {
		s.bits[i] &^= t.bits[i]
	}
}

// parMinWords is the backing-word count below which the *Par set-algebra
// variants fall back to their serial counterparts: splitting a few thousand
// words across goroutines costs more than the sweep itself, so small
// systems pay zero overhead. 32768 words cover 2^21 points. Variable, not
// constant, so tests can force the parallel path on small fixtures.
var parMinWords = 1 << 15

// UnionPar is Union with the word sweep split across up to workers
// goroutines (see ParRange). Below parMinWords, or with workers ≤ 1, it is
// exactly Union.
func (s *DenseSet) UnionPar(t *DenseSet, workers int) *DenseSet {
	if workers <= 1 || len(s.bits) < parMinWords {
		return s.Union(t)
	}
	s.check(t)
	u := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	ParRange(len(u.bits), 1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			u.bits[i] = s.bits[i] | t.bits[i]
		}
	})
	return u
}

// IntersectPar is Intersect with a work-split word sweep; see UnionPar.
func (s *DenseSet) IntersectPar(t *DenseSet, workers int) *DenseSet {
	if workers <= 1 || len(s.bits) < parMinWords {
		return s.Intersect(t)
	}
	s.check(t)
	u := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	ParRange(len(u.bits), 1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			u.bits[i] = s.bits[i] & t.bits[i]
		}
	})
	return u
}

// MinusPar is Minus with a work-split word sweep; see UnionPar.
func (s *DenseSet) MinusPar(t *DenseSet, workers int) *DenseSet {
	if workers <= 1 || len(s.bits) < parMinWords {
		return s.Minus(t)
	}
	s.check(t)
	u := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	ParRange(len(u.bits), 1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			u.bits[i] = s.bits[i] &^ t.bits[i]
		}
	})
	return u
}

// ComplementPar is Complement with a work-split word sweep; see UnionPar.
func (s *DenseSet) ComplementPar(workers int) *DenseSet {
	if workers <= 1 || len(s.bits) < parMinWords {
		return s.Complement()
	}
	u := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	ParRange(len(u.bits), 1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			u.bits[i] = ^s.bits[i]
		}
	})
	u.clearTail()
	return u
}

// Equal reports whether s and t contain exactly the same points.
func (s *DenseSet) Equal(t *DenseSet) bool {
	if s.idx != t.idx {
		return false
	}
	for i := range s.bits {
		if s.bits[i] != t.bits[i] {
			return false
		}
	}
	return true
}

// Iterate visits the dense IDs of the set's points in increasing order,
// walking set words with trailing-zero counts so sparse sets cost only
// their population.
func (s *DenseSet) Iterate(visit func(id int)) {
	for wi, w := range s.bits {
		for w != 0 {
			visit(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Key returns the set's bit pattern as a string, a cheap canonical map key
// for cycle detection over set sequences.
func (s *DenseSet) Key() string {
	b := make([]byte, 0, len(s.bits)*8)
	for _, w := range s.bits {
		for sh := 0; sh < 64; sh += 8 {
			b = append(b, byte(w>>sh))
		}
	}
	return string(b)
}

// PointSet converts the set to the map-based PointSet representation used
// at package boundaries.
func (s *DenseSet) PointSet() PointSet {
	out := make(PointSet, s.Len())
	s.Iterate(func(id int) { out.Add(s.idx.points[id]) })
	return out
}

// FirstN returns the first n points of the set in dense-ID order (fewer if
// the set is smaller). Unlike Sorted it stops after n hits, so reporting a
// bounded sample of a million-point set costs O(words + n), not O(|set|).
func (s *DenseSet) FirstN(n int) []Point {
	if n <= 0 {
		return nil
	}
	out := make([]Point, 0, n)
	for wi, w := range s.bits {
		for w != 0 {
			out = append(out, s.idx.points[wi*64+bits.TrailingZeros64(w)])
			if len(out) == n {
				return out
			}
			w &= w - 1
		}
	}
	return out
}

// Sorted returns the set's points in dense-ID order (tree, run, time), a
// deterministic order obtained without sorting.
func (s *DenseSet) Sorted() []Point {
	out := make([]Point, 0, s.Len())
	s.Iterate(func(id int) { out = append(out, s.idx.points[id]) })
	return out
}

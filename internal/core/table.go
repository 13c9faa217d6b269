package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"kpa/internal/measure"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// ErrStopped is returned by Table when the caller's stop hook ended the
// build early. Nothing was published: the next call builds afresh.
var ErrStopped = errors.New("core: space table build stopped")

// tableStride is how many points a table-build shard visits between stop
// polls.
const tableStride = 4096

// SpaceTable is one agent's probability spaces in dense form over the
// system's point index (system.Index): the distinct spaces in order of
// first occurrence by dense point ID, and byID mapping each dense ID c to
// the position of P_ic among them. A space is fully determined by its run
// fibers (X_ic is the unions of fibers, μ_ic conditions on R(S_ic)), so
// each DenseSpace holds just those, as dense IDs. A table is immutable
// once built and safe for concurrent readers.
type SpaceTable struct {
	spaces []DenseSpace
	byID   []int32
}

// NumSpaces returns the number of distinct spaces.
func (t *SpaceTable) NumSpaces() int { return len(t.spaces) }

// Space returns the k-th distinct space.
func (t *SpaceTable) Space(k int) *DenseSpace { return &t.spaces[k] }

// SpaceOf returns the position of the space of the point with dense ID id.
func (t *SpaceTable) SpaceOf(id int) int { return int(t.byID[id]) }

// DenseSpace is the probability space P_ic = (S_ic, X_ic, μ_ic) as run
// fibers over the dense point index: runs is R(S_ic) in ascending order,
// and the fiber of runs[k] — the sample points on that run, in time order
// — is ids[start[k]:start[k+1]]. Its memory is linear in |S_ic|.
// measure.Space is the map-based specification of the same object.
type DenseSpace struct {
	tree  *system.Tree
	runs  []int
	start []int32
	ids   []int32
	base  rat.Rat // μ_A(R(S_ic)) > 0
}

// Tree returns the computation tree the space lives in.
func (s *DenseSpace) Tree() *system.Tree { return s.tree }

// Runs returns R(S_ic) in ascending order. It must not be modified.
func (s *DenseSpace) Runs() []int { return s.runs }

// Fiber returns the dense IDs of the sample points on the k-th run of
// Runs, ascending. It must not be modified.
func (s *DenseSpace) Fiber(k int) []int32 { return s.ids[s.start[k]:s.start[k+1]] }

// BaseProb returns μ_A(R(S_ic)).
func (s *DenseSpace) BaseProb() rat.Rat { return s.base }

// Pattern writes the space's run pattern for ext into buf and returns it
// with the number of bits set. Bit k is set when the fiber of the k-th run
// lies inside ext (inner) or meets it (!inner): the runs of the largest
// measurable subset of S_ic ∩ ext, or R(S_ic ∩ ext). buf is reused when
// large enough.
func (s *DenseSpace) Pattern(ext *system.DenseSet, inner bool, buf []uint64) ([]uint64, int) {
	w := (len(s.runs) + 63) / 64
	if cap(buf) < w {
		buf = make([]uint64, w)
	} else {
		buf = buf[:w]
		clear(buf)
	}
	set := 0
	if len(s.ids) == len(s.runs) {
		// Every fiber is one point — the synchronous case — so inner and
		// hit patterns coincide: bit k is the point's membership.
		for k, id := range s.ids {
			if ext.Contains(int(id)) {
				buf[k/64] |= 1 << (k % 64)
				set++
			}
		}
		return buf, set
	}
	for k := range s.runs {
		bit := inner
		for _, id := range s.ids[s.start[k]:s.start[k+1]] {
			if ext.Contains(int(id)) != inner {
				bit = !inner
				break
			}
		}
		if bit {
			buf[k/64] |= 1 << (k % 64)
			set++
		}
	}
	return buf, set
}

// ProbOfPattern returns μ_ic of the runs whose bit is set in the pattern:
// μ_A(runs)/μ_A(R(S_ic)), in exact arithmetic.
func (s *DenseSpace) ProbOfPattern(pattern []uint64) rat.Rat {
	rs := system.NewRunSet(s.tree.NumRuns())
	for wi, word := range pattern {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			rs.Add(s.runs[wi*64+b])
		}
	}
	return s.tree.Prob(rs).Div(s.base)
}

// newDenseSpace builds the dense space over a sample, validating REQ1 and
// REQ2 with measure's errors, as measure.NewSpace does.
func newDenseSpace(idx *system.Index, sample system.PointSet) (DenseSpace, error) {
	if sample.IsEmpty() {
		return DenseSpace{}, measure.ErrEmptySample
	}
	tree := sample.SingleTree()
	if tree == nil {
		return DenseSpace{}, measure.ErrSpansTrees
	}
	ids, err := sampleIDs(idx, sample)
	if err != nil {
		return DenseSpace{}, err
	}
	// Dense IDs order one tree's points by run, then time, so each fiber
	// is a contiguous stretch of the sorted IDs.
	n := 1
	for k := 1; k < len(ids); k++ {
		if idx.PointAt(int(ids[k])).Run != idx.PointAt(int(ids[k-1])).Run {
			n++
		}
	}
	sp := DenseSpace{tree: tree, ids: ids, runs: make([]int, 0, n), start: make([]int32, 0, n+1)}
	for k, id := range ids {
		r := idx.PointAt(int(id)).Run
		if k == 0 || r != sp.runs[len(sp.runs)-1] {
			sp.runs = append(sp.runs, r)
			sp.start = append(sp.start, int32(k))
		}
	}
	sp.start = append(sp.start, int32(len(ids)))
	sp.base = tree.ProbRuns(sp.runs)
	if sp.base.Sign() <= 0 {
		return DenseSpace{}, measure.ErrZeroMeasure
	}
	return sp, nil
}

// sampleIDs returns the sample's dense IDs, ascending.
func sampleIDs(idx *system.Index, sample system.PointSet) ([]int32, error) {
	ids := make([]int32, 0, sample.Len())
	for p := range sample {
		id, ok := idx.ID(p)
		if !ok {
			return nil, fmt.Errorf("core: sample point %v is not a point of the system", p)
		}
		ids = append(ids, int32(id))
	}
	slices.Sort(ids)
	return ids, nil
}

// Table returns agent i's dense space table, building it on first use.
// The build is sharded over up to workers goroutines and polls stop, when
// non-nil, every few thousand points; a stopped build returns ErrStopped
// and publishes nothing. One build per agent runs at a time: a caller that
// finds one in flight waits for it, and builds itself only if that build
// published nothing. A finished table is published atomically, so all
// callers get the same table and it is built once. The table's spaces
// satisfy REQ1 and REQ2; a violation is reported with measure's errors.
func (p *ProbAssignment) Table(i system.AgentID, workers int, stop func() bool) (*SpaceTable, error) {
	if int(i) < 0 || int(i) >= len(p.tables) {
		return nil, fmt.Errorf("core: agent p%d out of range in a %d-agent system", i+1, len(p.tables))
	}
	for {
		if t := p.tables[i].Load(); t != nil {
			return t, nil
		}
		p.mu.Lock()
		wait := p.building[i]
		if wait == nil && p.tables[i].Load() == nil {
			done := make(chan struct{})
			p.building[i] = done
			p.mu.Unlock()
			return p.build(i, max(workers, 1), stop, done)
		}
		p.mu.Unlock()
		if wait != nil {
			<-wait
		}
	}
}

// build builds and publishes agent i's table, then ends the build in
// flight, waking its waiters, whether or not it succeeded.
func (p *ProbAssignment) build(i system.AgentID, workers int, stop func() bool, done chan struct{}) (*SpaceTable, error) {
	defer func() {
		p.mu.Lock()
		p.building[i] = nil
		p.mu.Unlock()
		close(done)
	}()
	t, err := p.buildTable(i, workers, stop)
	if err != nil {
		return nil, err
	}
	p.tables[i].Store(t)
	return t, nil
}

// TableIfBuilt returns agent i's dense space table if it has been built,
// and nil otherwise — a peek that never triggers the build.
func (p *ProbAssignment) TableIfBuilt(i system.AgentID) *SpaceTable {
	if int(i) < 0 || int(i) >= len(p.tables) {
		return nil
	}
	return p.tables[i].Load()
}

// groupKey identifies the points sharing one sample space: their sample
// key when the assignment has one, otherwise the sample's content (its
// dense IDs, encoded).
type groupKey struct {
	key     string
	content bool
}

// buildTable builds agent i's table in four phases. Phase 1 shards the
// dense IDs into 64-aligned ranges, and each shard numbers the distinct
// groups of its range in first-occurrence order, privately. Phase 2
// merges the shard numberings in shard order, which reproduces the serial
// first-occurrence order. Phase 3 builds one space per group, sharded
// over the groups, from one representative point's sample. Phase 4
// remaps each ID's shard-local number to its global one; ParRange
// reproduces phase 1's shard boundaries for equal arguments.
func (p *ProbAssignment) buildTable(i system.AgentID, workers int, stop func() bool) (*SpaceTable, error) {
	idx := p.sys.Index()
	n := idx.NumPoints()
	byID := make([]int32, n)
	perShard := make([]shardGroups, workers)
	system.ParRange(n, 64, workers, func(shard, lo, hi int) {
		perShard[shard] = p.groupRange(i, idx, lo, byID[lo:hi], stop)
	})
	global := make(map[groupKey]int32)
	var reps []int
	remap := make([][]int32, len(perShard))
	for s, g := range perShard {
		if g.halted {
			return nil, ErrStopped
		}
		if g.err != nil {
			return nil, g.err
		}
		remap[s] = make([]int32, len(g.keys))
		for k, key := range g.keys {
			gk, ok := global[key]
			if !ok {
				gk = int32(len(reps))
				global[key] = gk
				reps = append(reps, g.rep[k])
			}
			remap[s][k] = gk
		}
	}

	spaces := make([]DenseSpace, len(reps))
	errs := make([]error, len(reps))
	halted := make([]bool, workers)
	system.ParRange(len(reps), 1, workers, func(shard, lo, hi int) {
		for k := lo; k < hi; k++ {
			if stop != nil && k&15 == 0 && k > lo && stop() {
				halted[shard] = true
				return
			}
			c := idx.PointAt(reps[k])
			sp, err := newDenseSpace(idx, p.sample.Sample(i, c))
			if err != nil {
				errs[k] = fmt.Errorf("assignment %s at (%d,%v): %w", p.Name(), i, c, err)
				continue
			}
			spaces[k] = sp
		}
	})
	if slices.Contains(halted, true) {
		return nil, ErrStopped
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	system.ParRange(n, 64, workers, func(shard, lo, hi int) {
		tab := remap[shard]
		for id := lo; id < hi; id++ {
			if stop != nil && id&(tableStride-1) == 0 && id > lo && stop() {
				halted[shard] = true
				return
			}
			byID[id] = tab[byID[id]]
		}
	})
	if slices.Contains(halted, true) {
		return nil, ErrStopped
	}
	return &SpaceTable{spaces: spaces, byID: byID}, nil
}

// shardGroups is one phase-1 shard's numbering of the groups in its ID
// range, in first-occurrence order.
type shardGroups struct {
	byKey  map[groupKey]int32
	keys   []groupKey
	rep    []int // representative dense ID per local group
	err    error
	halted bool // stop ended the shard early
}

// groupRange numbers the groups of the dense IDs lo, lo+1, ... in order of
// first occurrence, writing each ID's shard-local group number into local.
func (p *ProbAssignment) groupRange(i system.AgentID, idx *system.Index, lo int, local []int32, stop func() bool) shardGroups {
	g := shardGroups{byKey: make(map[groupKey]int32)}
	for k := range local {
		if stop != nil && k&(tableStride-1) == 0 && k > 0 && stop() {
			g.halted = true
			return g
		}
		id := lo + k
		c := idx.PointAt(id)
		var key groupKey
		if sk, ok := p.sampleKey(i, c); ok {
			key = groupKey{key: sk}
		} else {
			ids, err := sampleIDs(idx, p.sample.Sample(i, c))
			if err != nil {
				g.err = fmt.Errorf("assignment %s at (%d,%v): %w", p.Name(), i, c, err)
				return g
			}
			key = groupKey{key: encodeIDs(ids), content: true}
		}
		num, seen := g.byKey[key]
		if !seen {
			num = int32(len(g.keys))
			g.byKey[key] = num
			g.keys = append(g.keys, key)
			g.rep = append(g.rep, id)
		}
		local[k] = num
	}
	return g
}

// encodeIDs encodes a sorted dense-ID list as a string key.
func encodeIDs(ids []int32) string {
	buf := make([]byte, 4*len(ids))
	for k, id := range ids {
		binary.LittleEndian.PutUint32(buf[4*k:], uint32(id))
	}
	return string(buf)
}

package logic

import (
	"errors"
	"fmt"
	"slices"

	"kpa/internal/core"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// This file holds the evaluator's probability operator: Pr_i extensions
// over the probability assignment's shared dense space tables, and the
// per-evaluator memo of exact-rational verdicts.

// errForeignProb is returned when an evaluator's probability assignment is
// bound to a different system than the evaluator.
var errForeignProb = errors.New("logic: probability assignment is bound to a different system")

// prKey identifies one probability-threshold verdict: does the run pattern
// with this interned id, over this space of the agent's table, have
// conditioned probability ≥ (geq) or ≤ (!geq) the interned bound? Spaces
// are numbered per agent, so the agent is part of the key too.
type prKey struct {
	agent   system.AgentID
	space   int32
	pattern int32
	bound   int32
	geq     bool
}

// prMemo memoizes probability-threshold verdicts by integer keys (prKey).
// Fixpoint iterations re-ask mostly unchanged questions — a space whose
// run pattern did not move between rounds skips the exact rational
// arithmetic entirely. Run patterns are interned into one arena: pattern
// id k is arena[offs[k]:offs[k+1]], byHash holds the newest id per
// pattern hash and chain[k] the previous id with the same hash (-1 ends
// the chain). The zero value is an empty memo.
type prMemo struct {
	verdicts map[prKey]bool
	byHash   map[uint64]int32
	chain    []int32
	offs     []int32
	arena    []uint64
	bounds   []rat.Rat
}

// words estimates the memo's footprint in 64-bit words: three per verdict
// (key and map slot), the pattern words, three per pattern (offset, chain
// link, hash slot) and four per bound.
func (m *prMemo) words() int {
	return 3*len(m.verdicts) + len(m.arena) + 3*len(m.chain) + 4*len(m.bounds)
}

// bound returns the interned id of a threshold. Formulas use a handful of
// distinct bounds, so a linear scan is enough.
func (m *prMemo) bound(b rat.Rat) int32 {
	for k, x := range m.bounds {
		if x.Equal(b) {
			return int32(k)
		}
	}
	m.bounds = append(m.bounds, b)
	return int32(len(m.bounds) - 1)
}

// find returns the interned id of a run pattern, if interned. It only
// reads the memo, so shards may call it concurrently.
func (m *prMemo) find(pattern []uint64) (int32, bool) {
	id, ok := m.byHash[hashWords(pattern)]
	for ok && id >= 0 {
		if slices.Equal(m.arena[m.offs[id]:m.offs[id+1]], pattern) {
			return id, true
		}
		id = m.chain[id]
	}
	return 0, false
}

// intern returns the id of a run pattern, interning a copy on first use.
func (m *prMemo) intern(pattern []uint64) int32 {
	if id, ok := m.find(pattern); ok {
		return id
	}
	if m.byHash == nil {
		m.byHash = make(map[uint64]int32)
		m.verdicts = make(map[prKey]bool)
		m.offs = []int32{0}
	}
	h := hashWords(pattern)
	id := int32(len(m.chain))
	prev, ok := m.byHash[h]
	if !ok {
		prev = -1
	}
	m.chain = append(m.chain, prev)
	m.byHash[h] = id
	m.arena = append(m.arena, pattern...)
	m.offs = append(m.offs, int32(len(m.arena)))
	return id
}

// hashWords mixes a word slice into a 64-bit hash (FNV-1a over words with
// an extra shift-xor, enough to spread the sparse patterns apart).
func hashWords(ws []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		h ^= w
		h *= 1099511628211
		h ^= h >> 31
	}
	return h
}

// spaceTable returns agent i's dense space table from the shared
// probability assignment, building it on first use under the evaluator's
// parallelism budget and cancellation hook. A canceled build publishes
// nothing and returns the hook's error.
func (e *Evaluator) spaceTable(i system.AgentID) (*core.SpaceTable, error) {
	if e.prob.System() != e.sys {
		return nil, errForeignProb
	}
	if t := e.prob.TableIfBuilt(i); t != nil {
		return t, nil
	}
	workers, release := e.parWorkers(e.idx.NumPoints())
	defer release()
	ps, stop := e.stopFn()
	t, err := e.prob.Table(i, workers, stop)
	if perr := ps.Err(); perr != nil {
		return nil, perr
	}
	if err != nil {
		return nil, fmt.Errorf("Pr%d: %w", i+1, err)
	}
	return t, nil
}

// prMiss is a verdict a phase-A shard computed without the memo, buffered
// for the merge after the barrier.
type prMiss struct {
	space   int
	pattern []uint64
	v       bool
}

// prExtension computes {c : inner measure of S_ic ∩ ext ≥ α} (geq) or
// {c : outer measure ≤ α} (leq) in two sharded phases. Phase A, parallel
// over the distinct spaces of the agent's table, forms each space's inner
// (geq) or hit (leq) run pattern by testing fiber IDs against ext's bits,
// and settles the verdict from the pattern alone when no run or every run
// is set (probability 0 or 1), from the memo when it has the pattern, and
// by exact rational arithmetic otherwise. Phase B, parallel over 64-aligned
// ID ranges, fans each verdict out to the points sharing the space. Phase
// A's shards only read the memo and buffer their misses; the calling
// goroutine merges them after the barrier, so the memo is never written
// concurrently.
func (e *Evaluator) prExtension(i system.AgentID, ext *system.DenseSet, bound rat.Rat, geq bool) (*system.DenseSet, error) {
	if e.prob == nil {
		return nil, ErrNoProbability
	}
	sx, err := e.spaceTable(i)
	if err != nil {
		return nil, err
	}
	b := e.pr.bound(bound)
	var zeroV, oneV bool // verdicts at probability 0 and 1
	if geq {
		zeroV, oneV = bound.Sign() <= 0, rat.One.GreaterEq(bound)
	} else {
		zeroV, oneV = bound.Sign() >= 0, rat.One.LessEq(bound)
	}
	verdicts := make([]bool, sx.NumSpaces())
	workers, release := e.parWorkers(e.idx.NumPoints())
	defer release()
	ps, stop := e.stopFn()
	misses := make([][]prMiss, workers)
	system.ParRange(sx.NumSpaces(), 1, workers, func(shard, lo, hi int) {
		var (
			buf   []uint64
			local []prMiss
		)
		for si := lo; si < hi; si++ {
			if stop != nil && si&15 == 0 && stop() {
				return
			}
			sp := sx.Space(si)
			pattern, set := sp.Pattern(ext, geq, buf)
			buf = pattern
			switch set {
			case 0:
				verdicts[si] = zeroV
				continue
			case len(sp.Runs()):
				verdicts[si] = oneV
				continue
			}
			if id, ok := e.pr.find(pattern); ok {
				if v, ok := e.pr.verdicts[prKey{agent: i, space: int32(si), pattern: id, bound: b, geq: geq}]; ok {
					verdicts[si] = v
					continue
				}
			}
			var v bool
			if p := sp.ProbOfPattern(pattern); geq {
				v = p.GreaterEq(bound)
			} else {
				v = p.LessEq(bound)
			}
			verdicts[si] = v
			local = append(local, prMiss{space: si, pattern: slices.Clone(pattern), v: v})
		}
		misses[shard] = local
	})
	if err := ps.Err(); err != nil {
		return nil, err
	}
	for _, local := range misses {
		for _, m := range local {
			id := e.pr.intern(m.pattern)
			e.pr.verdicts[prKey{agent: i, space: int32(m.space), pattern: id, bound: b, geq: geq}] = m.v
		}
	}
	out := e.idx.NewDense()
	system.ParRange(e.idx.NumPoints(), 64, workers, func(_, lo, hi int) {
		for id := lo; id < hi; id++ {
			if stop != nil && id&(cancelStride-1) == 0 && id > lo && stop() {
				return
			}
			if verdicts[sx.SpaceOf(id)] {
				out.Add(id)
			}
		}
	})
	if err := ps.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

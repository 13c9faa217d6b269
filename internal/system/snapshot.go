package system

import "fmt"

// This file is the system-side surface of the snapshot layer: exporting
// the expensive derived state (cell partitions, dense-set bit words) in
// plain-data form, and adopting it back into a freshly rebuilt system.
// Adoption validates everything it is handed against the live system —
// snapshot checksums catch bit rot, but only these checks catch a
// writer bug, so a table that fails them is rejected rather than
// trusted.

// CopyBits returns a copy of the set's backing words, least-significant
// bit of word 0 being dense ID 0. The copy is the set's durable form.
func (s *DenseSet) CopyBits() []uint64 {
	out := make([]uint64, len(s.bits))
	copy(out, s.bits)
	return out
}

// DenseOfBits rebuilds a DenseSet over the index from backing words
// previously obtained with CopyBits. It rejects words of the wrong
// length and set bits beyond the universe — a snapshot from a
// different system must not alias into this one.
func (x *Index) DenseOfBits(words []uint64) (*DenseSet, error) {
	if len(words) != x.words {
		return nil, fmt.Errorf("system: bitset has %d words, index needs %d", len(words), x.words)
	}
	s := &DenseSet{idx: x, bits: make([]uint64, len(words))}
	copy(s.bits, words)
	if rem := x.NumPoints() % 64; rem != 0 && len(s.bits) > 0 {
		if tail := s.bits[len(s.bits)-1] &^ ((1 << rem) - 1); tail != 0 {
			return nil, fmt.Errorf("system: bitset has bits set beyond the %d-point universe", x.NumPoints())
		}
	}
	return s, nil
}

// CellsBuilt returns agent i's information-cell partition if it has
// already been built, and nil otherwise — a peek that, unlike Cells,
// never triggers construction. Snapshot writers use it to persist only
// the partitions a workload actually paid for.
func (x *Index) CellsBuilt(i AgentID) *CellPartition {
	x.mu.Lock()
	defer x.mu.Unlock()
	if int(i) < 0 || int(i) >= len(x.cells) {
		return nil
	}
	return x.cells[i]
}

// Table returns the partition in plain-data form: the number of cells
// and a copy of the dense-ID → cell table, cells numbered in order of
// first occurrence by ID (the numbering Cells produces).
func (c *CellPartition) Table() (numCells int, cellOf []int32) {
	out := make([]int32, len(c.cellOf))
	copy(out, c.cellOf)
	return c.numCells, out
}

// AdoptCells installs a previously exported cell table as agent i's
// partition, skipping the per-point local-state hashing a fresh Cells
// build pays. The table is fully validated against the live system
// before anything is published:
//
//   - one entry per dense point, every value in [0, numCells)
//   - cells numbered in first-occurrence order with no empty cells
//     (so an adopted partition is bit-identical to a built one)
//   - every point's local state equals its cell representative's, and
//     distinct cells have distinct representatives — the table really
//     is the ∼_i partition, not just a well-formed coloring
//
// On any violation the index is left untouched and an error returned.
// If the partition was already built, the existing one is kept (the
// checks above make the two identical).
func (x *Index) AdoptCells(i AgentID, numCells int, cellOf []int32) error {
	x.mu.Lock()
	numAgents := len(x.cells)
	x.mu.Unlock()
	if int(i) < 0 || int(i) >= numAgents {
		return fmt.Errorf("system: agent %d out of range (system has %d agents)", i, numAgents)
	}
	n := len(x.points)
	if len(cellOf) != n {
		return fmt.Errorf("system: cell table for agent %d has %d entries, system has %d points", i, len(cellOf), n)
	}
	if numCells < 0 || (n > 0 && numCells == 0) || numCells > n {
		return fmt.Errorf("system: cell table for agent %d declares %d cells over %d points", i, numCells, n)
	}
	reps := make([]LocalState, numCells)
	next := 0
	for id, c := range cellOf {
		if c < 0 || int(c) >= numCells {
			return fmt.Errorf("system: cell table for agent %d maps ID %d to cell %d of %d", i, id, c, numCells)
		}
		l := x.points[id].Local(i)
		switch {
		case int(c) == next:
			reps[next] = l
			next++
		case int(c) > next:
			return fmt.Errorf("system: cell table for agent %d is not in first-occurrence order at ID %d", i, id)
		case l != reps[c]:
			return fmt.Errorf("system: cell table for agent %d puts ID %d in cell %d, but its local state differs from the cell's first point", i, id, c)
		}
	}
	if next != numCells {
		return fmt.Errorf("system: cell table for agent %d declares %d cells but only %d occur", i, numCells, next)
	}
	seen := make(map[LocalState]int32, numCells)
	for k, l := range reps {
		if prev, dup := seen[l]; dup {
			return fmt.Errorf("system: cell table for agent %d splits one local state across cells %d and %d", i, prev, k)
		}
		seen[l] = int32(k)
	}

	c := &CellPartition{cellOf: make([]int32, n), numCells: numCells, idx: x}
	copy(c.cellOf, cellOf)

	x.mu.Lock()
	defer x.mu.Unlock()
	if x.cells[i] == nil {
		x.cells[i] = c
	}
	return nil
}

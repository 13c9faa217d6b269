package logic

import (
	"fmt"
	"sort"
)

// This file is the logic-side surface of the snapshot layer: exporting a
// warm evaluator's memo table in durable plain-data form and importing
// one into a cold evaluator, so a restarted daemon's first query hits
// the memo instead of recomputing every subformula extension.
//
// Entries travel as (canonical formula text, bitset words). Text is the
// right key across processes: formula nodes are hash-consed per
// process, so re-parsing the canonical String() form on import yields
// the node identity the memo is keyed by. The per-agent space tables
// and probability-verdict caches are deliberately not exported — they
// key off process-local pointers (measure spaces, run-set patterns)
// and rebuild cheaply relative to the extensions themselves — and
// neither are proposition extensions, which live in the proposition
// table rather than the memo (an imported atom entry still lands in the
// memo and is served from it).

// MemoExport is one memoized formula extension in durable form.
type MemoExport struct {
	// Formula is the canonical text (Formula.String) of the subformula.
	Formula string
	// Bits is the extension's dense bitset (DenseSet.CopyBits).
	Bits []uint64
}

// ExportMemo returns the evaluator's memoized extensions, sorted by
// canonical formula text so equal memos export identically — snapshot
// encoding must be a function of state, not of map iteration order.
func (e *Evaluator) ExportMemo() []MemoExport {
	out := make([]MemoExport, 0, len(e.memo))
	for f, ext := range e.memo {
		out = append(out, MemoExport{Formula: f.String(), Bits: ext.CopyBits()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Formula < out[j].Formula })
	return out
}

// ImportMemo installs previously exported entries into the memo,
// returning how many were adopted. Each entry is re-parsed (restoring
// the hash-consed node identity the memo keys on) and its bits are
// validated against the evaluator's index; the first malformed entry
// aborts the import with an error, leaving earlier entries in place —
// they were individually validated, so a partial import is merely a
// less-warm memo, never a wrong one.
func (e *Evaluator) ImportMemo(entries []MemoExport) (int, error) {
	imported := 0
	for _, en := range entries {
		f, err := Parse(en.Formula)
		if err != nil {
			return imported, fmt.Errorf("logic: memo entry %q does not parse: %w", en.Formula, err)
		}
		ext, err := e.idx.DenseOfBits(en.Bits)
		if err != nil {
			return imported, fmt.Errorf("logic: memo entry %q: %w", en.Formula, err)
		}
		e.memo[f] = ext
		imported++
	}
	return imported, nil
}

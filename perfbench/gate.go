package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"kpa/internal/core"
	"kpa/internal/encode"
	"kpa/internal/logic"
	"kpa/internal/registry"
	"kpa/internal/system"
)

// refSystem is one system rebuilt from its source for the reference
// evaluator, sharing nothing with the service's copy but the code.
type refSystem struct {
	sys   *system.System
	props map[string]system.Fact
	evals map[string]*logic.ReferenceEvaluator // by assignment name
}

// referee answers formulas with logic.ReferenceEvaluator, the map-based
// executable specification the dense engine is tested against.
type referee struct {
	systems map[string]*refSystem // by registry name or document content
}

func (r *referee) evaluator(a answer) (*refSystem, *logic.ReferenceEvaluator, error) {
	key := a.source
	if a.doc != nil {
		key = "doc\x00" + string(a.doc)
	}
	rs, ok := r.systems[key]
	if !ok {
		rs = &refSystem{evals: make(map[string]*logic.ReferenceEvaluator)}
		if a.doc != nil {
			sys, props, err := encode.Decode(a.doc)
			if err != nil {
				return nil, nil, fmt.Errorf("decode %s: %w", a.source, err)
			}
			rs.sys, rs.props = sys, props
		} else {
			e, err := registry.Lookup(a.source)
			if err != nil {
				return nil, nil, err
			}
			rs.sys, rs.props = e.Sys, e.Props
		}
		r.systems[key] = rs
	}
	ev, ok := rs.evals[a.assign]
	if !ok {
		sa, err := registry.Assignment(rs.sys, a.assign)
		if err != nil {
			return nil, nil, err
		}
		ev = logic.NewReferenceEvaluator(rs.sys, core.NewProbAssignment(rs.sys, sa), rs.props)
		rs.evals[a.assign] = ev
	}
	return rs, ev, nil
}

// want is the reference verdict for an answer.
func (r *referee) want(a answer) (summary, error) {
	rs, ev, err := r.evaluator(a)
	if err != nil {
		return summary{}, err
	}
	f, err := logic.Parse(a.formula)
	if err != nil {
		return summary{}, err
	}
	ext, err := ev.Extension(f)
	if err != nil {
		return summary{}, err
	}
	n, holds := rs.sys.NumPoints(), len(ext)
	return summary{Valid: holds == n, HoldsAt: holds, Points: n, CounterTotal: n - holds}, nil
}

// gateAnswers picks the verdicts the gate checks: every distinct one when
// the workload dedupes (checking that repeats agree across clients too),
// or a seeded sample of gateSample of them.
func gateAnswers(w *workload, res *driveResult, seed int64) (picked []answer, problems []string) {
	if w.gateSample == 0 {
		first := make(map[string]answer)
		for _, c := range res.clients {
			problems = append(problems, c.mismatches...)
			for _, a := range c.answers {
				if b, ok := first[a.key]; ok {
					if b.got != a.got {
						problems = append(problems, fmt.Sprintf("%s/%s %q: %+v, other client %+v", a.source, a.assign, a.formula, a.got, b.got))
					}
					continue
				}
				first[a.key] = a
				picked = append(picked, a)
			}
		}
		return picked, problems
	}
	var all []answer
	for _, c := range res.clients {
		all = append(all, c.answers...)
	}
	rng := clientRNG(seed, 1<<20)
	for _, i := range rng.Perm(len(all)) {
		if len(picked) == w.gateSample {
			break
		}
		picked = append(picked, all[i])
	}
	return picked, problems
}

// gate checks the run's verdicts against the reference evaluator. It
// returns how many it checked and a description of every disagreement.
func gate(w *workload, res *driveResult, seed int64) (int, []string, error) {
	picked, problems := gateAnswers(w, res, seed)
	r := &referee{systems: make(map[string]*refSystem)}
	for _, a := range picked {
		want, err := r.want(a)
		if err != nil {
			return 0, nil, fmt.Errorf("reference %s/%s %q: %w", a.source, a.assign, a.formula, err)
		}
		if want != a.got {
			problems = append(problems, fmt.Sprintf("%s/%s %q: service %+v, reference %+v", a.source, a.assign, a.formula, a.got, want))
		}
	}
	return len(picked), problems, nil
}

// digestFile holds each client's verdict-digest checkpoints from earlier
// runs of one (workload, seed).
type digestFile struct {
	Every   int        `json:"every"`
	Clients [][]uint64 `json:"clients"`
}

// checkDigests compares this run's verdict digests with those an earlier
// run of the same code, workload and seed left in dir, over the
// checkpoints both runs reached, then stores the longer history. Every
// client's request stream is a function of the seed alone, so any
// difference is a verdict that changed between runs.
func checkDigests(dir, source string, w *workload, seed int64, res *driveResult) ([]string, error) {
	if len(source) > 16 {
		source = source[:16]
	}
	path := filepath.Join(dir, fmt.Sprintf("verdicts-%s-seed%d-%s.json", w.name, seed, source))
	var old digestFile
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, err
	default:
		if err := json.Unmarshal(b, &old); err != nil {
			return nil, fmt.Errorf("read %s: %w", path, err)
		}
	}
	var problems []string
	merged := digestFile{Every: digestEvery}
	for c, cr := range res.clients {
		cur := cr.digest
		if old.Every == digestEvery && c < len(old.Clients) {
			prev := old.Clients[c]
			for i := 0; i < len(prev) && i < len(cur); i++ {
				if prev[i] != cur[i] {
					problems = append(problems, fmt.Sprintf("client %d: verdicts %d..%d differ from an earlier run of seed %d",
						c, i*digestEvery, (i+1)*digestEvery-1, seed))
					break
				}
			}
			if len(prev) > len(cur) {
				cur = prev
			}
		}
		merged.Clients = append(merged.Clients, cur)
	}
	if len(problems) > 0 {
		return problems, nil
	}
	out, err := json.Marshal(merged)
	if err != nil {
		return nil, err
	}
	return nil, os.WriteFile(path, out, 0o644)
}

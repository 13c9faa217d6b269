package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"kpa/internal/service"
)

// requestTimeout is kpad's default per-request evaluation timeout.
const requestTimeout = 30 * time.Second

// digestEvery is how many verdicts go into one checkpoint of a client's
// rolling verdict digest.
const digestEvery = 64

// summary is the part of a verdict that must not depend on timing, cache
// state or which alias was asked.
type summary struct {
	Valid        bool
	HoldsAt      int
	Points       int
	CounterTotal int
}

// answer is one verdict kept for the correctness gate, with what the gate
// needs to rebuild the system: a registry name, or the uploaded document.
type answer struct {
	key     string // content hash, assignment and canonical formula
	source  string
	doc     []byte
	assign  string
	formula string
	got     summary
}

// clientResult is what one closed-loop client saw. Bookkeeping is kept
// small because it shares the heap whose size the run reports.
type clientResult struct {
	latNs     []int64 // every request, in order
	uploadNs  []int64
	attempted int
	failed    int
	verdicts  int
	busyNs    int64
	errs      []string // the first few failure messages

	digest     []uint64 // rolling digest, one checkpoint per digestEvery verdicts
	rolling    uint64
	inDigest   int
	answers    []answer       // every verdict, or the first per key when dedupe is on
	firstByKey map[string]int // key → index into answers, when dedupe is on
	mismatches []string       // verdicts that disagree with an earlier one for the same key
	docs       map[string][]byte
	formulas   map[pair][]string // first formulas sent per pair, for the cold replay
	sent       []rosterEntry     // first formulas sent, for the parse and hit replays
}

// driveResult merges the clients' results of one timed phase.
type driveResult struct {
	clients []*clientResult
	elapsed time.Duration
}

func (d *driveResult) sum(f func(*clientResult) int) int {
	n := 0
	for _, c := range d.clients {
		n += f(c)
	}
	return n
}

// keepPerPair and keepTexts bound the formulas kept for the traced replays.
const (
	keepPerPair = 3
	keepTexts   = 4096
)

// drive runs the workload's closed loop against svc: each client sends its
// next request only after the previous one completed, until the deadline.
func drive(svc *service.Service, w *workload, seed int64, dur time.Duration,
	infos map[string]service.SystemInfo, tr *tracer) *driveResult {
	start := time.Now()
	deadline := start.Add(dur)
	res := &driveResult{clients: make([]*clientResult, w.clients)}
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res.clients[c] = runClient(svc, w, seed, c, infos, deadline, tr)
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func runClient(svc *service.Service, w *workload, seed int64, client int,
	infos map[string]service.SystemInfo, deadline time.Time, tr *tracer) *clientResult {
	next := w.newGen(w, seed, client, infos)
	cr := &clientResult{
		docs:     make(map[string][]byte),
		formulas: make(map[pair][]string),
	}
	if w.gateSample == 0 {
		cr.firstByKey = make(map[string]int)
	}
	for k := 0; time.Now().Before(deadline); k++ {
		o := next()
		t0 := time.Now()
		vs, err := do(svc, o)
		d := time.Since(t0)
		tr.record(o.Kind, 0, int64(client)<<40|int64(k), t0, t0.Add(d))
		cr.latNs = append(cr.latNs, int64(d))
		cr.busyNs += int64(d)
		cr.attempted++
		if o.Kind == "upload" {
			cr.uploadNs = append(cr.uploadNs, int64(d))
			if err == nil {
				cr.docs[o.System] = o.Doc
			}
		}
		if err != nil {
			cr.failed++
			if len(cr.errs) < 5 {
				cr.errs = append(cr.errs, fmt.Sprintf("%s %s %q: %v", o.Kind, o.System, o.Formulas, err))
			}
		}
		for i, v := range vs {
			cr.observe(o, o.Formulas[i], v)
		}
	}
	return cr
}

// do sends one op with kpad's per-request timeout and returns its verdicts
// in formula order. A batch with any failed item fails as a whole.
func do(svc *service.Service, o op) ([]service.Verdict, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	switch o.Kind {
	case "upload":
		_, err := svc.Upload(o.System, o.Doc)
		return nil, err
	case "check":
		v, err := svc.Check(ctx, service.CheckRequest{System: o.System, Assign: o.Assign, Formula: o.Formulas[0]})
		if err != nil {
			return nil, err
		}
		return []service.Verdict{v}, nil
	default:
		items, err := svc.Batch(ctx, service.BatchRequest{System: o.System, Assign: o.Assign, Formulas: o.Formulas})
		if err != nil {
			return nil, err
		}
		vs := make([]service.Verdict, 0, len(items))
		var errs []error
		for _, it := range items {
			if it.Verdict == nil {
				errs = append(errs, fmt.Errorf("%s: %s", it.Formula, it.Error))
				continue
			}
			vs = append(vs, *it.Verdict)
		}
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
		return vs, nil
	}
}

// observe books one verdict: the rolling digest, the answer kept for the
// gate, and — when dedupe is on — a consistency check against the first
// verdict seen for the same (content, assignment, formula).
func (cr *clientResult) observe(o op, formula string, v service.Verdict) {
	cr.verdicts++
	s := summary{Valid: v.Valid, HoldsAt: v.HoldsAt, Points: v.Points, CounterTotal: v.CounterTotal}
	cr.rolling = digestVerdict(cr.rolling, v)
	if cr.inDigest++; cr.inDigest == digestEvery {
		cr.digest = append(cr.digest, cr.rolling)
		cr.inDigest = 0
	}
	p := pair{o.System, o.Assign}
	if fs := cr.formulas[p]; len(fs) < keepPerPair {
		cr.formulas[p] = append(fs, formula)
	}
	if len(cr.sent) < keepTexts {
		cr.sent = append(cr.sent, rosterEntry{pair: p, formula: formula})
	}
	a := answer{source: o.System, doc: cr.docs[o.System], assign: o.Assign, formula: formula, got: s}
	if cr.firstByKey == nil {
		cr.answers = append(cr.answers, a)
		return
	}
	a.key = v.Hash + "\x00" + v.Assignment + "\x00" + v.Formula
	if i, ok := cr.firstByKey[a.key]; ok {
		if cr.answers[i].got != s {
			cr.mismatches = append(cr.mismatches, fmt.Sprintf("%s/%s %q: %+v, earlier %+v", o.System, o.Assign, formula, s, cr.answers[i].got))
		}
		return
	}
	cr.firstByKey[a.key] = len(cr.answers)
	cr.answers = append(cr.answers, a)
}

// digestVerdict folds every field of a verdict except Cached, which
// legitimately depends on timing, into h.
func digestVerdict(h uint64, v service.Verdict) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(h >> (8 * i))
	}
	f.Write(b[:])
	for _, s := range []string{v.System, v.Hash, v.Assignment, v.Formula,
		strconv.FormatBool(v.Valid), strconv.Itoa(v.HoldsAt), strconv.Itoa(v.Points), strconv.Itoa(v.CounterTotal)} {
		f.Write([]byte(s))
		f.Write([]byte{0})
	}
	for _, c := range v.CounterExamples {
		f.Write([]byte(c))
		f.Write([]byte{0})
	}
	return f.Sum64()
}

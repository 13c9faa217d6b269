package service

import (
	"fmt"
	"sort"
	"sync"

	"kpa/internal/canon"
	"kpa/internal/encode"
	"kpa/internal/logic"
	"kpa/internal/registry"
	"kpa/internal/system"
)

// session is a loaded system: the store's unit of sharing. The system,
// propositions and hash are immutable after construction; pools holds the
// lazily-created evaluator pool per canonical assignment name. props is
// the session's one proposition table: every evaluator of every pool reads
// it, so each proposition's extension is scanned once per session.
type session struct {
	name   string // the name the session was first loaded under
	desc   string
	source string // "registry" or "upload"
	hash   string // canon.Hash of the system
	sys    *system.System
	props  *logic.PropTable

	// doc retains the original upload document for "upload" sessions (nil
	// for registry sessions): propositions are compiled closures and
	// cannot be serialized, so the document is what a snapshot carries to
	// rebuild the system after a restart.
	doc []byte

	mu    sync.RWMutex
	pools map[string]*evalPool // guarded by mu
}

// pool returns the session's evaluator pool for the assignment name,
// resolving and creating it on first use. The canonical key is the resolved
// assignment's own Name(), so "opp:1" and the post assignment it equals for
// agent 1 still get distinct pools (their verdicts coincide but their
// sample keys differ), while repeated requests share one pool.
func (s *session) pool(assignName string, cfg Config, eng *engine) (*evalPool, error) {
	sa, err := registry.Assignment(s.sys, assignName)
	if err != nil {
		return nil, badRequest(err)
	}
	key := sa.Name()
	s.mu.RLock()
	p, ok := s.pools[key]
	s.mu.RUnlock()
	if ok {
		return p, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pools[key]; ok {
		return p, nil
	}
	p = newEvalPool(s.sys, sa, s.props, cfg.MemoCap, cfg.MaxIdle, eng)
	s.pools[key] = p
	return p, nil
}

// poolsSnapshot returns the session's pools with their canonical
// assignment keys, sorted by key, for the snapshot writer.
func (s *session) poolsSnapshot() (keys []string, pools []*evalPool) {
	type kp struct {
		k string
		p *evalPool
	}
	s.mu.RLock()
	items := make([]kp, 0, len(s.pools))
	for k, p := range s.pools {
		items = append(items, kp{k, p})
	}
	s.mu.RUnlock()
	sort.Slice(items, func(i, j int) bool { return items[i].k < items[j].k })
	for _, it := range items {
		keys = append(keys, it.k)
		pools = append(pools, it.p)
	}
	return keys, pools
}

func (s *session) poolStats() []PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.pools))
	for k := range s.pools {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]PoolStats, 0, len(keys))
	for _, k := range keys {
		ps := s.pools[k].stats()
		ps.System = s.name
		out = append(out, ps)
	}
	return out
}

// store holds the service's loaded systems, keyed both by name (registry
// names and upload names) and by canonical content hash, so identical
// systems — a registry system re-uploaded as JSON, or the same document
// uploaded twice under different names — share one session and hence one
// set of warm evaluator pools and one slice of the verdict cache.
type store struct {
	seams  *Seams
	mu     sync.RWMutex
	byName map[string]*session // guarded by mu
	byHash map[string]*session // guarded by mu
}

func newStore(seams *Seams) *store {
	return &store{
		seams:  seams,
		byName: make(map[string]*session),
		byHash: make(map[string]*session),
	}
}

// get returns the session for a name, loading it from the registry on first
// use. Unknown names fail with a KindNotFound error wrapping the registry's
// (which lists the valid names). Loaded names take only a read lock, so the
// cache-hit fast path never serializes behind uploads.
func (st *store) get(name string) (*session, error) {
	if err := st.seams.storeGet(name); err != nil {
		return nil, err
	}
	st.mu.RLock()
	s, ok := st.byName[name]
	st.mu.RUnlock()
	if ok {
		return s, nil
	}

	// Build outside the lock: registry systems can be large (async:12).
	entry, err := registry.Lookup(name)
	if err != nil {
		return nil, &Error{Kind: KindNotFound, Err: err}
	}
	s = &session{
		name:   name,
		desc:   entry.Description,
		source: "registry",
		hash:   canon.Hash(entry.Sys),
		sys:    entry.Sys,
		props:  logic.NewPropTable(entry.Sys, entry.Props),
		pools:  make(map[string]*evalPool),
	}
	return st.intern(name, s), nil
}

// upload decodes a JSON document and registers it under the name. Uploading
// a document whose content hash matches a loaded system aliases the name to
// the existing session instead of keeping a second copy.
func (st *store) upload(name string, doc []byte) (*session, error) {
	if name == "" {
		return nil, &Error{Kind: KindBadRequest, Msg: "service: upload needs a name"}
	}
	if _, err := registry.Lookup(name); err == nil {
		return nil, &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("service: name %q is reserved by the registry", name)}
	}
	sys, props, err := encode.Decode(doc)
	if err != nil {
		return nil, badRequest(err)
	}
	s := &session{
		name:   name,
		desc:   fmt.Sprintf("uploaded system (%d trees, %d points)", len(sys.Trees()), sys.NumPoints()),
		source: "upload",
		hash:   canon.Hash(sys),
		sys:    sys,
		props:  logic.NewPropTable(sys, props),
		doc:    append([]byte(nil), doc...),
		pools:  make(map[string]*evalPool),
	}
	got := st.intern(name, s)
	if got.hash != s.hash {
		// The name was already taken — possibly by a concurrent upload —
		// and its content differs. (Re-uploading identical content is
		// idempotent: intern resolved it to the existing session.)
		return nil, &Error{Kind: KindConflict, Msg: fmt.Sprintf("service: name %q already names a different system", name)}
	}
	return got, nil
}

// intern registers the session under the name, deduping by content hash:
// if an identical system is already loaded, the name becomes an alias for
// the existing session. Races on the same name are resolved first-wins.
func (st *store) intern(name string, s *session) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.byName[name]; ok {
		return prev
	}
	if prev, ok := st.byHash[s.hash]; ok {
		st.byName[name] = prev
		return prev
	}
	st.byName[name] = s
	st.byHash[s.hash] = s
	return s
}

// SystemInfo describes one loaded system for /v1/systems.
type SystemInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Source      string   `json:"source"`
	Hash        string   `json:"hash"`
	Agents      int      `json:"agents"`
	Trees       int      `json:"trees"`
	Points      int      `json:"points"`
	Props       []string `json:"props"`
}

func (s *session) info(name string) SystemInfo {
	return SystemInfo{
		Name:        name,
		Description: s.desc,
		Source:      s.source,
		Hash:        s.hash,
		Agents:      s.sys.NumAgents(),
		Trees:       len(s.sys.Trees()),
		Points:      s.sys.NumPoints(),
		Props:       s.props.Names(),
	}
}

// list returns every loaded name, sorted, with aliased names pointing at
// their shared session.
func (st *store) list() []SystemInfo {
	st.mu.Lock()
	names := make([]string, 0, len(st.byName))
	for n := range st.byName {
		names = append(names, n)
	}
	sessions := make(map[string]*session, len(names))
	for _, n := range names {
		sessions[n] = st.byName[n]
	}
	st.mu.Unlock()
	sort.Strings(names)
	out := make([]SystemInfo, 0, len(names))
	for _, n := range names {
		out = append(out, sessions[n].info(n))
	}
	return out
}

// namesOf returns every name bound to the session, sorted. The snapshot
// layer persists them so a restarted daemon answers the same aliases.
func (st *store) namesOf(s *session) []string {
	st.mu.RLock()
	var names []string
	for n, sess := range st.byName {
		if sess == s {
			names = append(names, n)
		}
	}
	st.mu.RUnlock()
	sort.Strings(names)
	return names
}

// sessions returns a snapshot of the distinct loaded sessions.
func (st *store) sessions() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	hashes := make([]string, 0, len(st.byHash))
	for h := range st.byHash {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	out := make([]*session, 0, len(hashes))
	for _, h := range hashes {
		out = append(out, st.byHash[h])
	}
	return out
}

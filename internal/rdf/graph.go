package rdf

import (
	"math"
	"sort"
	"sync"

	"tatooine/internal/store"
)

// tripleBackend is the storage engine behind a Graph: the three
// permutation indexes (SPO/POS/OSP) reduced to eight operations. The
// default backend is nested in-memory maps (mapTriples); a store-backed
// graph runs the same access paths over B-tree cursors (storeTriples).
// All methods are called with the Graph's lock held (write lock for
// add/remove, read lock otherwise), so implementations need no internal
// locking.
type tripleBackend interface {
	add(s, p, o TermID) bool
	remove(s, p, o TermID) bool
	contains(s, p, o TermID) bool
	// match calls fn for every triple matching the pattern (NoTerm is a
	// wildcard in any position); iteration stops when fn returns false.
	match(s, p, o TermID, fn func(s, p, o TermID) bool)
	// count returns how many triples match the pattern, but stops
	// counting at limit (limit >= 1): the result is min(matches, limit).
	// Bounded counts let the BGP evaluator compare patterns without
	// scanning past the best candidate so far.
	count(s, p, o TermID, limit int) int
	size() int
	// properties iterates the distinct predicate IDs in the graph.
	properties(fn func(p TermID) bool)
	// err returns the first storage error encountered, if any; the map
	// backend always returns nil.
	err() error
}

// Graph is a dictionary-encoded RDF triple store with SPO, POS and OSP
// access paths, supporting pattern matching with any combination of
// bound positions. It is safe for concurrent readers; writes take an
// exclusive lock. The default graph lives in memory; OpenGraph puts the
// same structure on a persistent store.Store.
type Graph struct {
	mu   sync.RWMutex
	dict *Dictionary
	be   tripleBackend
}

// NewGraph returns an empty in-memory graph with its own dictionary.
func NewGraph() *Graph {
	return &Graph{
		dict: NewDictionary(),
		be:   newMapTriples(),
	}
}

// OpenGraph opens (or creates) a graph persisted in st under the given
// keyspace prefix. The dictionary is lazily paged: term↔ID mappings
// live in B-tree keyspaces read through the store's page cache with a
// small LRU of hot decoded terms, so open cost and resident memory are
// independent of term count. Writes become durable at the owning
// store's next Commit.
func OpenGraph(st store.Store, prefix string) (*Graph, error) {
	dict, err := openPagedDictionary(st, prefix, 0)
	if err != nil {
		return nil, err
	}
	be, err := openStoreTriples(st, prefix)
	if err != nil {
		return nil, err
	}
	return &Graph{dict: dict, be: be}, nil
}

// OpenGraphSharedDict opens (or creates) a graph persisted in st under
// prefix that interns terms through base's dictionary instead of
// loading its own. Saturation generations use this: G∞ shares G's
// terms almost entirely, so sharing the dictionary halves what a warm
// boot has to load — and since dictionaries only ever grow, sharing
// one across graphs is safe (it locks internally).
func OpenGraphSharedDict(st store.Store, prefix string, base *Graph) (*Graph, error) {
	be, err := openStoreTriples(st, prefix)
	if err != nil {
		return nil, err
	}
	return &Graph{dict: base.dict, be: be}, nil
}

// StoreErr returns the first storage error the graph's backend has
// swallowed, or nil. The probe API (Contains, MatchIDs, ...) cannot
// report errors, so after an I/O failure a store-backed graph answers
// short: durable owners must check StoreErr before committing, and
// readers after evaluating, to turn that short answer into an error.
func (g *Graph) StoreErr() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if err := g.dict.storeErr(); err != nil {
		return err
	}
	return g.be.err()
}

// Dict exposes the graph's term dictionary.
func (g *Graph) Dict() *Dictionary { return g.dict }

// Size returns the number of distinct triples stored.
func (g *Graph) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.be.size()
}

// Add inserts the triple and reports whether it was not already present.
// Zero (invalid) terms are rejected by returning false.
func (g *Graph) Add(t Triple) bool {
	if t.S.IsZero() || t.P.IsZero() || t.O.IsZero() {
		return false
	}
	s := g.dict.Intern(t.S)
	p := g.dict.Intern(t.P)
	o := g.dict.Intern(t.O)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.be.add(s, p, o)
}

// AddAll inserts every triple in ts and returns how many were new. The
// batch is applied atomically with respect to concurrent readers (it is
// AddBatch without the delta).
func (g *Graph) AddAll(ts []Triple) int {
	return len(g.AddBatch(ts))
}

// AddBatch inserts every triple in ts under ONE write-lock hold and
// returns the subset that was actually new, in input order. Unlike
// AddAll — which locks per triple, so a concurrent reader can observe a
// half-applied batch — the whole batch becomes visible atomically with
// respect to any single read operation. The returned delta is what an
// incremental reasoner must propagate. Zero (invalid) terms are skipped.
func (g *Graph) AddBatch(ts []Triple) []Triple {
	type enc struct {
		s, p, o TermID
		t       Triple
	}
	// Intern outside the graph lock; the dictionary has its own.
	encs := make([]enc, 0, len(ts))
	for _, t := range ts {
		if t.S.IsZero() || t.P.IsZero() || t.O.IsZero() {
			continue
		}
		encs = append(encs, enc{g.dict.Intern(t.S), g.dict.Intern(t.P), g.dict.Intern(t.O), t})
	}
	var added []Triple
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range encs {
		if g.be.add(e.s, e.p, e.o) {
			added = append(added, e.t)
		}
	}
	return added
}

// RemoveBatch deletes every triple in ts under ONE write-lock hold and
// returns the subset that was actually present, in input order (the
// delta an incremental reasoner must retract).
func (g *Graph) RemoveBatch(ts []Triple) []Triple {
	type enc struct {
		s, p, o TermID
		t       Triple
	}
	encs := make([]enc, 0, len(ts))
	for _, t := range ts {
		s := g.dict.Lookup(t.S)
		p := g.dict.Lookup(t.P)
		o := g.dict.Lookup(t.O)
		if s == NoTerm || p == NoTerm || o == NoTerm {
			continue
		}
		encs = append(encs, enc{s, p, o, t})
	}
	var removed []Triple
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range encs {
		if g.be.remove(e.s, e.p, e.o) {
			removed = append(removed, e.t)
		}
	}
	return removed
}

// addIDs inserts an already-encoded triple under the write lock.
func (g *Graph) addIDs(s, p, o TermID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.be.add(s, p, o)
}

// Remove deletes the triple and reports whether it was present.
func (g *Graph) Remove(t Triple) bool {
	s := g.dict.Lookup(t.S)
	p := g.dict.Lookup(t.P)
	o := g.dict.Lookup(t.O)
	if s == NoTerm || p == NoTerm || o == NoTerm {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.be.remove(s, p, o)
}

// Contains reports whether the triple is present.
func (g *Graph) Contains(t Triple) bool {
	s := g.dict.Lookup(t.S)
	p := g.dict.Lookup(t.P)
	o := g.dict.Lookup(t.O)
	if s == NoTerm || p == NoTerm || o == NoTerm {
		return false
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.be.contains(s, p, o)
}

// MatchIDs calls fn for every stored triple matching the pattern, where
// NoTerm in any position is a wildcard. Iteration stops early if fn
// returns false. The callback runs under the graph's read lock and must
// not call write methods.
func (g *Graph) MatchIDs(s, p, o TermID, fn func(s, p, o TermID) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.be.match(s, p, o, fn)
}

// zeroAsWildcard maps a zero Term to NoTerm, otherwise looks it up. The
// second return value is false when a non-zero term is absent from the
// dictionary (so no triple can match).
func (g *Graph) zeroAsWildcard(t Term) (TermID, bool) {
	if t.IsZero() {
		return NoTerm, true
	}
	id := g.dict.Lookup(t)
	return id, id != NoTerm
}

// Match returns all triples matching the pattern; zero Terms are
// wildcards. Results are in unspecified order.
func (g *Graph) Match(s, p, o Term) []Triple {
	sid, ok := g.zeroAsWildcard(s)
	if !ok {
		return nil
	}
	pid, ok := g.zeroAsWildcard(p)
	if !ok {
		return nil
	}
	oid, ok := g.zeroAsWildcard(o)
	if !ok {
		return nil
	}
	var out []Triple
	g.MatchIDs(sid, pid, oid, func(s, p, o TermID) bool {
		out = append(out, Triple{g.dict.Term(s), g.dict.Term(p), g.dict.Term(o)})
		return true
	})
	return out
}

// CountMatch returns the number of triples matching the pattern without
// materializing them; zero Terms are wildcards.
func (g *Graph) CountMatch(s, p, o Term) int {
	sid, ok := g.zeroAsWildcard(s)
	if !ok {
		return 0
	}
	pid, ok := g.zeroAsWildcard(p)
	if !ok {
		return 0
	}
	oid, ok := g.zeroAsWildcard(o)
	if !ok {
		return 0
	}
	return g.countIDs(sid, pid, oid, math.MaxInt)
}

// countIDs is min(triples matching the pattern, limit); see
// tripleBackend.count.
func (g *Graph) countIDs(s, p, o TermID, limit int) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.be.count(s, p, o, limit)
}

// Triples returns every stored triple, sorted lexically by their
// N-Triples rendering (deterministic for tests and serialization).
func (g *Graph) Triples() []Triple {
	ts := g.Match(Term{}, Term{}, Term{})
	sort.Slice(ts, func(i, j int) bool { return ts[i].String() < ts[j].String() })
	return ts
}

// Subjects returns the distinct subjects of triples with property p and
// object o (zero Terms are wildcards).
func (g *Graph) Subjects(p, o Term) []Term {
	pid, ok := g.zeroAsWildcard(p)
	if !ok {
		return nil
	}
	oid, ok := g.zeroAsWildcard(o)
	if !ok {
		return nil
	}
	seen := make(map[TermID]struct{})
	g.MatchIDs(NoTerm, pid, oid, func(s, _, _ TermID) bool {
		seen[s] = struct{}{}
		return true
	})
	out := make([]Term, 0, len(seen))
	for id := range seen {
		out = append(out, g.dict.Term(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Objects returns the distinct objects of triples with subject s and
// property p (zero Terms are wildcards).
func (g *Graph) Objects(s, p Term) []Term {
	sid, ok := g.zeroAsWildcard(s)
	if !ok {
		return nil
	}
	pid, ok := g.zeroAsWildcard(p)
	if !ok {
		return nil
	}
	seen := make(map[TermID]struct{})
	g.MatchIDs(sid, pid, NoTerm, func(_, _, o TermID) bool {
		seen[o] = struct{}{}
		return true
	})
	out := make([]Term, 0, len(seen))
	for id := range seen {
		out = append(out, g.dict.Term(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Properties returns the distinct properties used in the graph.
func (g *Graph) Properties() []Term {
	g.mu.RLock()
	var ids []TermID
	g.be.properties(func(p TermID) bool {
		ids = append(ids, p)
		return true
	})
	g.mu.RUnlock()
	out := make([]Term, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.dict.Term(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// CopyTo inserts every triple of g into dst. It is the bulk-load path
// for migrating a graph between backends (e.g. seeding a store-backed
// graph from an in-memory one).
func (g *Graph) CopyTo(dst *Graph) {
	const batch = 4096
	buf := make([]Triple, 0, batch)
	flush := func() {
		if len(buf) > 0 {
			dst.AddBatch(buf)
			buf = buf[:0]
		}
	}
	g.mu.RLock()
	var all []Triple
	g.be.match(NoTerm, NoTerm, NoTerm, func(s, p, o TermID) bool {
		all = append(all, Triple{g.dict.Term(s), g.dict.Term(p), g.dict.Term(o)})
		return true
	})
	g.mu.RUnlock()
	for _, t := range all {
		buf = append(buf, t)
		if len(buf) == batch {
			flush()
		}
	}
	flush()
}

// Clone returns a deep in-memory copy of the graph sharing no mutable
// state.
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	g.CopyTo(out)
	return out
}

package rdf

// mapTriples is the default, in-memory triple backend: the original
// three nested-map indexes. It implements tripleBackend so the graph's
// access paths (probe, scan, count) are backend-agnostic — the same
// calls run against B-tree cursors when the graph is store-backed.

type termSet map[TermID]struct{}

// index is a two-level nested map ending in a set, e.g. for the SPO index
// idx[s][p] is the set of objects.
type index map[TermID]map[TermID]termSet

func (ix index) add(a, b, c TermID) bool {
	m, ok := ix[a]
	if !ok {
		m = make(map[TermID]termSet)
		ix[a] = m
	}
	s, ok := m[b]
	if !ok {
		s = make(termSet)
		m[b] = s
	}
	if _, ok := s[c]; ok {
		return false
	}
	s[c] = struct{}{}
	return true
}

func (ix index) remove(a, b, c TermID) bool {
	m, ok := ix[a]
	if !ok {
		return false
	}
	s, ok := m[b]
	if !ok {
		return false
	}
	if _, ok := s[c]; !ok {
		return false
	}
	delete(s, c)
	if len(s) == 0 {
		delete(m, b)
		if len(m) == 0 {
			delete(ix, a)
		}
	}
	return true
}

type mapTriples struct {
	spo index
	pos index
	osp index
	n   int
}

func newMapTriples() *mapTriples {
	return &mapTriples{spo: make(index), pos: make(index), osp: make(index)}
}

func (b *mapTriples) add(s, p, o TermID) bool {
	if !b.spo.add(s, p, o) {
		return false
	}
	b.pos.add(p, o, s)
	b.osp.add(o, s, p)
	b.n++
	return true
}

func (b *mapTriples) remove(s, p, o TermID) bool {
	if !b.spo.remove(s, p, o) {
		return false
	}
	b.pos.remove(p, o, s)
	b.osp.remove(o, s, p)
	b.n--
	return true
}

func (b *mapTriples) contains(s, p, o TermID) bool {
	if m, ok := b.spo[s]; ok {
		if set, ok := m[p]; ok {
			_, ok := set[o]
			return ok
		}
	}
	return false
}

func (b *mapTriples) size() int { return b.n }

func (b *mapTriples) match(s, p, o TermID, fn func(s, p, o TermID) bool) {
	switch {
	case s != NoTerm:
		m, ok := b.spo[s]
		if !ok {
			return
		}
		if p != NoTerm {
			set, ok := m[p]
			if !ok {
				return
			}
			if o != NoTerm {
				if _, ok := set[o]; ok {
					fn(s, p, o)
				}
				return
			}
			for oid := range set {
				if !fn(s, p, oid) {
					return
				}
			}
			return
		}
		for pid, set := range m {
			if o != NoTerm {
				if _, ok := set[o]; ok {
					if !fn(s, pid, o) {
						return
					}
				}
				continue
			}
			for oid := range set {
				if !fn(s, pid, oid) {
					return
				}
			}
		}
	case p != NoTerm:
		m, ok := b.pos[p]
		if !ok {
			return
		}
		if o != NoTerm {
			set, ok := m[o]
			if !ok {
				return
			}
			for sid := range set {
				if !fn(sid, p, o) {
					return
				}
			}
			return
		}
		for oid, set := range m {
			for sid := range set {
				if !fn(sid, p, oid) {
					return
				}
			}
		}
	case o != NoTerm:
		m, ok := b.osp[o]
		if !ok {
			return
		}
		for sid, set := range m {
			for pid := range set {
				if !fn(sid, pid, o) {
					return
				}
			}
		}
	default:
		for sid, m := range b.spo {
			for pid, set := range m {
				for oid := range set {
					if !fn(sid, pid, oid) {
						return
					}
				}
			}
		}
	}
}

func (b *mapTriples) count(s, p, o TermID, limit int) int {
	n := 0
	switch {
	case s == NoTerm && p == NoTerm && o == NoTerm:
		n = b.n
	case s != NoTerm && p != NoTerm && o == NoTerm:
		n = len(b.spo[s][p])
	case s == NoTerm && p != NoTerm && o != NoTerm:
		n = len(b.pos[p][o])
	case s != NoTerm && p == NoTerm && o == NoTerm:
		n = sumSets(b.spo[s], limit)
	case s == NoTerm && p != NoTerm && o == NoTerm:
		n = sumSets(b.pos[p], limit)
	case s == NoTerm && p == NoTerm && o != NoTerm:
		n = sumSets(b.osp[o], limit)
	default:
		b.match(s, p, o, func(_, _, _ TermID) bool { n++; return n < limit })
	}
	return min(n, limit)
}

// sumSets adds up the set sizes under one first-level index entry,
// stopping once the sum reaches limit.
func sumSets(m map[TermID]termSet, limit int) int {
	n := 0
	for _, set := range m {
		if n += len(set); n >= limit {
			break
		}
	}
	return n
}

func (b *mapTriples) properties(fn func(p TermID) bool) {
	for p := range b.pos {
		if !fn(p) {
			return
		}
	}
}

func (b *mapTriples) err() error { return nil }

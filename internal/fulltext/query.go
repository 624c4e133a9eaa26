package fulltext

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"tatooine/internal/doc"
	"tatooine/internal/value"
)

// Query is any full-text query node.
type Query interface{ isQuery() }

// TermQuery matches documents whose analyzed text field contains the
// term (the term itself is analyzed, so "États" matches "etat").
type TermQuery struct {
	Field string
	Term  string
}

func (TermQuery) isQuery() {}

// MatchQuery analyzes Text and matches documents containing the
// resulting terms; all terms are required when RequireAll is set,
// otherwise any (with ranking favouring more matches).
type MatchQuery struct {
	Field      string
	Text       string
	RequireAll bool
}

func (MatchQuery) isQuery() {}

// PhraseQuery matches consecutive terms in order.
type PhraseQuery struct {
	Field string
	Text  string
}

func (PhraseQuery) isQuery() {}

// KeywordQuery matches a keyword field exactly (case- and accent-
// insensitively): hashtags, screen names, codes.
type KeywordQuery struct {
	Field string
	Value string
}

func (KeywordQuery) isQuery() {}

// RangeQuery matches numeric or time fields within [Min, Max]
// (inclusive); a Null bound is open.
type RangeQuery struct {
	Field    string
	Min, Max value.Value
}

func (RangeQuery) isQuery() {}

// BoolQuery combines sub-queries: all of Must, at least one of Should
// (if any present), none of MustNot.
type BoolQuery struct {
	Must    []Query
	Should  []Query
	MustNot []Query
}

func (BoolQuery) isQuery() {}

// AllQuery matches every document with score 0.
type AllQuery struct{}

func (AllQuery) isQuery() {}

// Hit is one search result.
type Hit struct {
	ID    string
	Score float64
	Doc   *doc.Document
}

// SearchOptions control result shaping.
type SearchOptions struct {
	// Limit bounds the number of hits (0 means unlimited).
	Limit int
	// SortField orders hits by a numeric/time field instead of score.
	SortField string
	// SortAsc sorts ascending when SortField is set (default descending).
	SortAsc bool
}

// BM25 parameters (standard defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Search evaluates the query and returns hits ordered by descending
// BM25 score (or by SortField when given).
func (ix *Index) Search(q Query, opts SearchOptions) ([]Hit, error) {
	ix.rlockSorted()
	m, err := ix.eval(q)
	if err != nil {
		ix.mu.RUnlock()
		return nil, err
	}
	hits := make([]Hit, m.len())
	for i := range hits {
		d := ix.docs[m.id(i)]
		hits[i] = Hit{ID: d.ID, Score: m.score(i), Doc: d}
	}
	ix.mu.RUnlock()

	if opts.SortField != "" {
		sort.SliceStable(hits, func(i, j int) bool {
			vi := firstNumeric(hits[i].Doc, opts.SortField)
			vj := firstNumeric(hits[j].Doc, opts.SortField)
			if opts.SortAsc {
				return vi < vj
			}
			return vi > vj
		})
	} else {
		sort.SliceStable(hits, func(i, j int) bool {
			if hits[i].Score != hits[j].Score {
				return hits[i].Score > hits[j].Score
			}
			return hits[i].ID < hits[j].ID
		})
	}
	if opts.Limit > 0 && len(hits) > opts.Limit {
		hits = hits[:opts.Limit]
	}
	return hits, nil
}

func firstNumeric(d *doc.Document, field string) float64 {
	for _, v := range d.Values(field) {
		switch v.Kind() {
		case value.Int, value.Float:
			return v.Float()
		case value.Time:
			return float64(v.Time().UnixNano())
		case value.String:
			if c, ok := value.Coerce(v, value.Time); ok {
				return float64(c.Time().UnixNano())
			}
			if c, ok := value.Coerce(v, value.Float); ok {
				return c.Float()
			}
		}
	}
	return math.Inf(-1)
}

// A matchList is one clause's matching documents in ascending doc-ID
// order, each with the score the clause gives it. Add assigns
// increasing doc IDs and only appends, so keyword and term posting
// lists are already in this order and are read in place.
type matchList interface {
	len() int
	id(i int) int32
	score(i int) float64
}

// idList holds keyword or range matches; each scores 1.
type idList []int32

func (l idList) len() int        { return len(l) }
func (l idList) id(i int) int32  { return l[i] }
func (idList) score(int) float64 { return 1 }

// allDocs matches documents 0..n-1, each with score 0.
type allDocs int32

func (n allDocs) len() int        { return int(n) }
func (allDocs) id(i int) int32    { return int32(i) }
func (allDocs) score(int) float64 { return 0 }

// termList scores one term's postings by BM25.
type termList struct {
	ps     []posting
	idf    float64
	avgLen float64
	docLen []uint32
}

func (l *termList) len() int       { return len(l.ps) }
func (l *termList) id(i int) int32 { return l.ps[i].docID }

func (l *termList) score(i int) float64 {
	p := l.ps[i]
	tf := float64(len(p.positions))
	dl := 1.0
	if int(p.docID) < len(l.docLen) {
		dl = float64(l.docLen[p.docID])
	}
	return l.idf * (tf * (bm25K1 + 1)) / (tf + bm25K1*(1-bm25B+bm25B*dl/l.avgLen))
}

// scoredList is a computed result: a conjunction, union, difference or
// phrase filter.
type scoredList struct {
	ids    []int32
	scores []float64
}

func (l *scoredList) len() int            { return len(l.ids) }
func (l *scoredList) id(i int) int32      { return l.ids[i] }
func (l *scoredList) score(i int) float64 { return l.scores[i] }

func (l *scoredList) add(id int32, score float64) {
	l.ids = append(l.ids, id)
	l.scores = append(l.scores, score)
}

// seek returns the first index at or after from whose doc ID is at
// least id, galloping forward from from and then binary searching, so
// a short list probes a long one in logarithmic steps.
func seek(l matchList, from int, id int32) int {
	n := l.len()
	if from >= n || l.id(from) >= id {
		return from
	}
	// Invariant: l.id(lo) < id.
	lo, step := from, 1
	hi := lo + step
	for hi < n && l.id(hi) < id {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	return lo + 1 + sort.Search(hi-lo-1, func(k int) bool { return l.id(lo+1+k) >= id })
}

// intersect returns the documents every list holds. It drives from the
// shortest list and seeks each candidate in the others. A document's
// score is the sum of the lists' scores, added in list order.
func intersect(lists []matchList) matchList {
	if len(lists) == 1 {
		return lists[0]
	}
	drive := 0
	for k, l := range lists {
		if l.len() < lists[drive].len() {
			drive = k
		}
	}
	d := lists[drive]
	pos := make([]int, len(lists))
	out := &scoredList{ids: make([]int32, 0, d.len()), scores: make([]float64, 0, d.len())}
next:
	for i := 0; i < d.len(); i++ {
		id := d.id(i)
		pos[drive] = i
		for k, l := range lists {
			if k == drive {
				continue
			}
			pos[k] = seek(l, pos[k], id)
			if pos[k] == l.len() {
				break next
			}
			if l.id(pos[k]) != id {
				continue next
			}
		}
		score := 0.0
		for k, l := range lists {
			score += l.score(pos[k])
		}
		out.add(id, score)
	}
	return out
}

// union returns the documents any list holds. A document's score is the
// sum of the scores of the lists holding it, added in list order.
func union(lists []matchList) matchList {
	if len(lists) == 1 {
		return lists[0]
	}
	pos := make([]int, len(lists))
	out := &scoredList{}
	for {
		id, found := int32(0), false
		for k, l := range lists {
			if pos[k] < l.len() && (!found || l.id(pos[k]) < id) {
				id, found = l.id(pos[k]), true
			}
		}
		if !found {
			return out
		}
		score := 0.0
		for k, l := range lists {
			if pos[k] < l.len() && l.id(pos[k]) == id {
				score += l.score(pos[k])
				pos[k]++
			}
		}
		out.add(id, score)
	}
}

// subtract returns the documents of l that no excluded list holds,
// keeping their scores.
func subtract(l matchList, excluded []matchList) matchList {
	pos := make([]int, len(excluded))
	out := &scoredList{}
next:
	for i := 0; i < l.len(); i++ {
		id := l.id(i)
		for k, x := range excluded {
			pos[k] = seek(x, pos[k], id)
			if pos[k] < x.len() && x.id(pos[k]) == id {
				continue next
			}
		}
		out.add(id, l.score(i))
	}
	return out
}

// eval returns the query's matches. Caller holds the read lock.
func (ix *Index) eval(q Query) (matchList, error) {
	switch x := q.(type) {
	case AllQuery:
		return allDocs(len(ix.docs)), nil
	case TermQuery:
		terms := ix.analyzer.Tokens(x.Term)
		if len(terms) > 1 {
			terms = terms[:1]
		}
		return ix.evalTerms(x.Field, terms, false)
	case MatchQuery:
		terms := ix.analyzer.Tokens(x.Text)
		return ix.evalTerms(x.Field, terms, x.RequireAll)
	case PhraseQuery:
		return ix.evalPhrase(x.Field, x.Text)
	case KeywordQuery:
		return ix.keywordPostings(x.Field, x.Value)
	case RangeQuery:
		return ix.evalRange(x)
	case BoolQuery:
		return ix.evalBool(x)
	default:
		return nil, fmt.Errorf("fulltext: unsupported query %T", q)
	}
}

// evalAll evaluates each query, stopping at the first error.
func (ix *Index) evalAll(qs []Query) ([]matchList, error) {
	out := make([]matchList, len(qs))
	for i, q := range qs {
		m, err := ix.eval(q)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// keywordPostings returns the IDs of the documents holding value in a
// keyword field. Caller holds the read lock.
func (ix *Index) keywordPostings(field, value string) (idList, error) {
	m, ok := ix.keyword[field]
	if !ok {
		if _, declared := ix.schema[field]; !declared {
			return nil, fmt.Errorf("fulltext: unknown keyword field %q", field)
		}
		return nil, nil
	}
	return m[Fold(value)], nil
}

// evalTerms matches documents holding all terms (requireAll) or any of
// them, scoring each held term by BM25.
func (ix *Index) evalTerms(field string, terms []string, requireAll bool) (matchList, error) {
	if _, declared := ix.schema[field]; !declared {
		return nil, fmt.Errorf("fulltext: unknown field %q", field)
	}
	postingsByTerm := ix.text[field]
	if len(terms) == 0 || postingsByTerm == nil {
		return idList(nil), nil
	}
	n := float64(len(ix.docs))
	avgLen := 1.0
	if n > 0 && ix.totalLen[field] > 0 {
		avgLen = float64(ix.totalLen[field]) / n
	}
	lists := make([]matchList, len(terms))
	for i, term := range terms {
		plist := postingsByTerm[term]
		idf := math.Log(1 + (n-float64(len(plist))+0.5)/(float64(len(plist))+0.5))
		lists[i] = &termList{ps: plist, idf: idf, avgLen: avgLen, docLen: ix.docLen[field]}
	}
	if requireAll {
		return intersect(lists), nil
	}
	return union(lists), nil
}

func (ix *Index) evalPhrase(field, text string) (matchList, error) {
	if _, declared := ix.schema[field]; !declared {
		return nil, fmt.Errorf("fulltext: unknown field %q", field)
	}
	terms := ix.analyzer.Tokens(text)
	if len(terms) == 0 {
		return idList(nil), nil
	}
	scored, err := ix.evalTerms(field, terms, true)
	if err != nil {
		return nil, err
	}
	postingsByTerm := ix.text[field]
	positionsOf := func(term string, docID int32) []uint32 {
		ps := postingsByTerm[term]
		i := sort.Search(len(ps), func(i int) bool { return ps[i].docID >= docID })
		if i < len(ps) && ps[i].docID == docID {
			return ps[i].positions
		}
		return nil
	}
	out := &scoredList{}
	for i := 0; i < scored.len(); i++ {
		docID := scored.id(i)
		for _, start := range positionsOf(terms[0], docID) {
			match := true
			for k := 1; k < len(terms); k++ {
				if !containsPos(positionsOf(terms[k], docID), start+uint32(k)) {
					match = false
					break
				}
			}
			if match {
				out.add(docID, scored.score(i))
				break
			}
		}
	}
	return out, nil
}

func containsPos(ps []uint32, want uint32) bool {
	for _, p := range ps {
		if p == want {
			return true
		}
	}
	return false
}

func (ix *Index) evalRange(q RangeQuery) (matchList, error) {
	if _, declared := ix.schema[q.Field]; !declared {
		return nil, fmt.Errorf("fulltext: unknown field %q", q.Field)
	}
	toF := func(v value.Value, def float64) float64 {
		switch v.Kind() {
		case value.Null:
			return def
		case value.Time:
			return float64(v.Time().UnixNano())
		case value.String:
			if c, ok := value.Coerce(v, value.Time); ok {
				return float64(c.Time().UnixNano())
			}
			if c, ok := value.Coerce(v, value.Float); ok {
				return c.Float()
			}
			return def
		default:
			return v.Float()
		}
	}
	lo := toF(q.Min, math.Inf(-1))
	hi := toF(q.Max, math.Inf(1))
	// The entries are sorted by value (see rlockSorted): binary search
	// the lower bound, scan to the upper, then put the IDs in doc order.
	entries := ix.numeric[q.Field]
	var ids idList
	i := sort.Search(len(entries), func(i int) bool { return entries[i].val >= lo })
	for ; i < len(entries) && entries[i].val <= hi; i++ {
		ids = append(ids, entries[i].docID)
	}
	slices.Sort(ids)
	return slices.Compact(ids), nil
}

func (ix *Index) evalBool(q BoolQuery) (matchList, error) {
	must, err := ix.evalAll(q.Must)
	if err != nil {
		return nil, err
	}
	if len(q.Should) > 0 {
		should, err := ix.evalAll(q.Should)
		if err != nil {
			return nil, err
		}
		must = append(must, union(should))
	}
	var acc matchList = allDocs(len(ix.docs))
	if len(must) > 0 {
		acc = intersect(must)
	}
	if len(q.MustNot) > 0 {
		not, err := ix.evalAll(q.MustNot)
		if err != nil {
			return nil, err
		}
		acc = subtract(acc, not)
	}
	return acc, nil
}

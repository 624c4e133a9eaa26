package rdf

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tatooine/internal/pager"
	"tatooine/internal/store"
)

// refEvaluate is the test oracle for EvaluateBound: it shares no code
// with the evaluator. It works on Terms, not IDs, and has no dictionary
// and no pattern order: nested loops over every triple, patterns in
// written order, then the filters, then each OPTIONAL group in turn (a
// group's extensions must pass the filters too; a solution no extension
// of which passes keeps the group's variables unbound).
func refEvaluate(triples []Triple, q BGP, init Bindings) [][]Term {
	passes := func(b Bindings) bool {
		for _, f := range q.Filters {
			if t, ok := b[f.Var]; ok && !f.eval(t) {
				return false
			}
		}
		return true
	}
	embed := func(sols []Bindings, pats []TriplePattern) []Bindings {
		for _, p := range pats {
			var next []Bindings
			for _, b := range sols {
				for _, tr := range triples {
					if ext, ok := unify(p, tr, b); ok {
						next = append(next, ext)
					}
				}
			}
			sols = next
		}
		var out []Bindings
		for _, b := range sols {
			if passes(b) {
				out = append(out, b)
			}
		}
		return out
	}
	if len(q.Patterns) == 0 {
		return nil
	}
	start := Bindings{}
	for k, v := range init {
		start[k] = v
	}
	sols := embed([]Bindings{start}, q.Patterns)
	for _, grp := range q.Optionals {
		var next []Bindings
		for _, b := range sols {
			if exts := embed([]Bindings{b}, grp); len(exts) > 0 {
				next = append(next, exts...)
			} else {
				next = append(next, b)
			}
		}
		sols = next
	}
	head := q.Head
	if len(head) == 0 {
		head = q.AllVars()
	}
	rows := make([][]Term, len(sols))
	for i, b := range sols {
		rows[i] = make([]Term, len(head))
		for j, v := range head {
			rows[i][j] = b[v]
		}
	}
	return rows
}

// unify extends b so that pattern p matches triple tr, position by
// position: a constant or a bound variable must equal the triple's term,
// an unbound variable binds to it.
func unify(p TriplePattern, tr Triple, b Bindings) (Bindings, bool) {
	out := b
	copied := false
	for i, pt := range [3]PatternTerm{p.S, p.P, p.O} {
		t := [3]Term{tr.S, tr.P, tr.O}[i]
		if !pt.IsVar() {
			if pt.Term != t {
				return nil, false
			}
			continue
		}
		if cur, ok := out[pt.Var]; ok {
			if cur != t {
				return nil, false
			}
			continue
		}
		if !copied {
			out = make(Bindings, len(b)+3)
			for k, v := range b {
				out[k] = v
			}
			copied = true
		}
		out[pt.Var] = t
	}
	return out, true
}

// refMinCount is the smallest number of triples one pattern matches on
// its own, variables as wildcards.
func refMinCount(triples []Triple, pats []TriplePattern) int {
	best := -1
	for _, p := range pats {
		n := 0
		for _, tr := range triples {
			if matchesConstants(p, tr) {
				n++
			}
		}
		if best < 0 || n < best {
			best = n
		}
	}
	return best
}

func matchesConstants(p TriplePattern, tr Triple) bool {
	for i, pt := range [3]PatternTerm{p.S, p.P, p.O} {
		if !pt.IsVar() && pt.Term != [3]Term{tr.S, tr.P, tr.O}[i] {
			return false
		}
	}
	return true
}

func rowKeys(rows [][]Term) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, t := range r {
			parts[j] = t.Key()
		}
		keys[i] = strings.Join(parts, "\x01")
	}
	sort.Strings(keys)
	return keys
}

// bgpGen draws random graphs and BGPs over one small vocabulary, so
// joins, repeated variables and filters hit often.
type bgpGen struct {
	rng *rand.Rand
}

var refVars = []string{"x", "y", "z", "w", "v"}

func (gen bgpGen) node() Term {
	switch gen.rng.Intn(8) {
	case 0:
		return NewBlank(fmt.Sprintf("b%d", gen.rng.Intn(2)))
	default:
		return NewIRI(fmt.Sprintf("http://e/n%d", gen.rng.Intn(6)))
	}
}

func (gen bgpGen) object() Term {
	switch gen.rng.Intn(5) {
	case 0:
		return NewTypedLiteral(fmt.Sprint(gen.rng.Intn(20)), XSDInteger)
	case 1:
		return NewLangLiteral([]string{"Paris", "Lyon", "Lille"}[gen.rng.Intn(3)], "fr")
	default:
		return gen.node()
	}
}

func (gen bgpGen) predicate() Term {
	return NewIRI(fmt.Sprintf("http://e/p%d", gen.rng.Intn(4)))
}

// constant sometimes returns a term no graph holds.
func (gen bgpGen) constant(pick func() Term) Term {
	if gen.rng.Intn(12) == 0 {
		return NewIRI("http://e/missing")
	}
	return pick()
}

func (gen bgpGen) position(pick func() Term, varOdds int) PatternTerm {
	if gen.rng.Intn(varOdds) != 0 {
		return Variable(refVars[gen.rng.Intn(len(refVars))])
	}
	return Constant(gen.constant(pick))
}

func (gen bgpGen) pattern() TriplePattern {
	return TriplePattern{
		S: gen.position(gen.node, 3),
		P: gen.position(gen.predicate, 5), // mostly constant predicates
		O: gen.position(gen.object, 2),
	}
}

func (gen bgpGen) triples() []Triple {
	n := 10 + gen.rng.Intn(60)
	out := make([]Triple, 0, n)
	seen := make(map[Triple]bool)
	for len(out) < n {
		tr := Triple{gen.node(), gen.predicate(), gen.object()}
		if !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	return out
}

// query draws a BGP with OPTIONAL groups and filters, plus init
// bindings over a random subset of variables, some of them outside the
// body (a head variable bound only by init) and some bound to terms the
// graph does not hold.
func (gen bgpGen) query() (BGP, Bindings) {
	rng := gen.rng
	var q BGP
	for i := 1 + rng.Intn(4); i > 0; i-- {
		q.Patterns = append(q.Patterns, gen.pattern())
	}
	for i := rng.Intn(3); i > 0; i-- {
		var grp []TriplePattern
		for j := 1 + rng.Intn(2); j > 0; j-- {
			grp = append(grp, gen.pattern())
		}
		q.Optionals = append(q.Optionals, grp)
	}
	init := Bindings{}
	if rng.Intn(2) == 0 {
		for _, v := range append(q.AllVars(), "u") {
			if rng.Intn(3) == 0 {
				init[v] = gen.constant(gen.object)
			}
		}
	}
	known := q.AllVars()
	if _, ok := init["u"]; ok {
		known = append(known, "u")
	}
	if len(known) == 0 {
		return q, init
	}
	for i := rng.Intn(3); i > 0; i-- {
		f := Filter{Var: known[rng.Intn(len(known))], Op: FilterOp(rng.Intn(int(FilterContains) + 1))}
		switch rng.Intn(3) {
		case 0:
			f.Term = NewTypedLiteral(fmt.Sprint(rng.Intn(20)), XSDInteger)
		case 1:
			f.Term = NewLiteral([]string{"n1", "Li", "p"}[rng.Intn(3)])
		default:
			f.Term = gen.object()
		}
		q.Filters = append(q.Filters, f)
	}
	if rng.Intn(4) != 0 {
		for _, v := range known {
			if rng.Intn(2) == 0 {
				q.Head = append(q.Head, v)
			}
		}
		if len(q.Head) == 0 {
			q.Head = known[:1]
		}
	}
	return q, init
}

// TestEvaluateMatchesReference diffs EvaluateBound and MinPatternCount
// against the nested-loop oracle on random graphs and random BGPs
// (repeated variables, predicate variables, constants missing from the
// dictionary, init bindings, filters, OPTIONAL groups), on the
// in-memory backend and on a store-backed graph under a four-page cache.
func TestEvaluateMatchesReference(t *testing.T) {
	dir := t.TempDir()
	gen := bgpGen{rng: rand.New(rand.NewSource(11))}
	queries, rowsSeen := 0, 0
	for round := 0; round < 40; round++ {
		triples := gen.triples()
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("g%d.db", round)), store.Options{Pager: pager.Options{CacheSize: 4}})
		if err != nil {
			t.Fatal(err)
		}
		disk, err := OpenGraph(st, "g")
		if err != nil {
			t.Fatal(err)
		}
		graphs := map[string]*Graph{"map": NewGraph(), "store": disk}
		for _, g := range graphs {
			g.AddAll(triples)
		}
		for i := 0; i < 60; i++ {
			q, init := gen.query()
			want := rowKeys(refEvaluate(triples, q, init))
			wantMin := refMinCount(triples, q.Patterns)
			for name, g := range graphs {
				sols, err := EvaluateBound(g, q, init)
				if err != nil {
					t.Fatalf("%s: EvaluateBound(%s, init %v): %v", name, q, init, err)
				}
				got := rowKeys(sols.Rows)
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s: %s with init %v\n got %d rows %q\nwant %d rows %q",
						name, q, init, len(got), got, len(want), want)
				}
				if n := g.MinPatternCount(q.Patterns); n != wantMin {
					t.Fatalf("%s: MinPatternCount(%s) = %d, want %d", name, q, n, wantMin)
				}
			}
			queries++
			rowsSeen += len(want)
		}
		if err := disk.StoreErr(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if rowsSeen < queries {
		t.Fatalf("only %d rows over %d queries: the generator rarely matches anything", rowsSeen, queries)
	}
}

package rdf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// PatternTerm is a position in a triple pattern: either a constant Term
// or a named variable.
type PatternTerm struct {
	Var  string // non-empty for a variable (without the '?' sigil)
	Term Term   // constant when Var == ""
}

// IsVar reports whether the position holds a variable.
func (pt PatternTerm) IsVar() bool { return pt.Var != "" }

// Variable returns a PatternTerm holding the named variable.
func Variable(name string) PatternTerm { return PatternTerm{Var: name} }

// Constant returns a PatternTerm holding a constant term.
func Constant(t Term) PatternTerm { return PatternTerm{Term: t} }

func (pt PatternTerm) String() string {
	if pt.IsVar() {
		return "?" + pt.Var
	}
	return pt.Term.String()
}

// TriplePattern is a triple whose positions may hold variables.
type TriplePattern struct {
	S, P, O PatternTerm
}

func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String()
}

// Vars returns the distinct variable names in the pattern, in S,P,O order.
func (tp TriplePattern) Vars() []string {
	var out []string
	seen := make(map[string]struct{})
	for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
		if pt.IsVar() {
			if _, ok := seen[pt.Var]; !ok {
				seen[pt.Var] = struct{}{}
				out = append(out, pt.Var)
			}
		}
	}
	return out
}

// BGP is a basic graph pattern query: a conjunction of triple patterns
// with a head of projected variables. It corresponds to the SPARQL
// subset of conjunctive queries defined in the paper (§2.1).
type BGP struct {
	// Head lists the projected variables, in output column order. An
	// empty head projects all variables (in first-appearance order).
	Head []string
	// Patterns is the conjunctive body.
	Patterns []TriplePattern
	// Filters constrain solutions (variable-vs-constant comparisons).
	Filters []Filter
	// Optionals are OPTIONAL { … } groups: each group extends solutions
	// when it matches and leaves its variables unbound otherwise
	// (SPARQL's left-join, applied group by group in order). Unbound
	// positions surface as zero Terms in Solutions rows.
	Optionals [][]TriplePattern
}

// AllVars returns the distinct variables of the body (required patterns
// then optional groups) in first-appearance order.
func (q BGP) AllVars() []string {
	var out []string
	seen := make(map[string]struct{})
	add := func(pats []TriplePattern) {
		for _, p := range pats {
			for _, v := range p.Vars() {
				if _, ok := seen[v]; !ok {
					seen[v] = struct{}{}
					out = append(out, v)
				}
			}
		}
	}
	add(q.Patterns)
	for _, g := range q.Optionals {
		add(g)
	}
	return out
}

// Validate checks that every head and filter variable appears in the
// body.
func (q BGP) Validate() error {
	body := make(map[string]struct{})
	for _, v := range q.AllVars() {
		body[v] = struct{}{}
	}
	for _, v := range q.Head {
		if _, ok := body[v]; !ok {
			return fmt.Errorf("rdf: head variable ?%s not in query body", v)
		}
	}
	for _, f := range q.Filters {
		if _, ok := body[f.Var]; !ok {
			return fmt.Errorf("rdf: filter variable ?%s not in query body", f.Var)
		}
	}
	return nil
}

func (q BGP) String() string {
	var b strings.Builder
	b.WriteString("q(")
	for i, v := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("?" + v)
	}
	b.WriteString(") :- ")
	for i, p := range q.Patterns {
		if i > 0 {
			b.WriteString(" . ")
		}
		b.WriteString(p.String())
	}
	for _, g := range q.Optionals {
		b.WriteString(" . OPTIONAL { ")
		for i, p := range g {
			if i > 0 {
				b.WriteString(" . ")
			}
			b.WriteString(p.String())
		}
		b.WriteString(" }")
	}
	for _, f := range q.Filters {
		b.WriteString(" . ")
		b.WriteString(f.String())
	}
	return b.String()
}

// Bindings is one solution: variable name → bound term.
type Bindings map[string]Term

// Solutions is an ordered result set with named columns.
type Solutions struct {
	Vars []string
	Rows [][]Term
}

// Answer evaluates q over the saturation of g (the paper's "answer"
// semantics): the graph is saturated first, then the BGP is evaluated.
func Answer(g *Graph, q BGP) (*Solutions, error) {
	sat := Saturate(g)
	return Evaluate(sat.Graph, q)
}

// Evaluate computes all embeddings of q into g (no entailment) and
// projects the head variables. Patterns are greedily reordered so the
// most selective pattern (fewest matching triples given already-bound
// variables) runs first.
func Evaluate(g *Graph, q BGP) (*Solutions, error) {
	return EvaluateBound(g, q, nil)
}

// EvaluateBound is Evaluate with initial variable bindings, used by the
// mediator's bind joins: variables in init are constrained to the given
// terms before evaluation. Head variables may be satisfied by init even
// when absent from the body.
//
// Evaluation runs in term-ID space (see evaluator): constants and init
// terms are looked up once, bindings are TermIDs set and unset in place,
// and terms are decoded only to test a filter or to emit a head column.
// At each step the first remaining pattern with the fewest matches
// under the current bindings runs next; counts stop at the best count
// so far, and a pattern with no match ends the branch.
func EvaluateBound(g *Graph, q BGP, init Bindings) (*Solutions, error) {
	if err := validateWithInit(q, init); err != nil {
		return nil, err
	}
	head := q.Head
	if len(head) == 0 {
		head = q.AllVars()
	}
	sols := &Solutions{Vars: head}
	if len(q.Patterns) == 0 {
		return sols, nil
	}
	for _, f := range q.Filters {
		if t, ok := init[f.Var]; ok && !f.eval(t) {
			return sols, nil
		}
	}
	e := compileBGP(g, q, init)
	e.sols = sols
	e.head = make([]headCol, len(head))
	for i, v := range head {
		if t, ok := init[v]; ok {
			e.head[i] = headCol{slot: -1, init: t}
		} else {
			e.head[i] = headCol{slot: e.slots[v]}
		}
	}
	e.solve(e.required, 0, -1)
	return sols, nil
}

// MinPatternCount returns the smallest number of triples that one of
// pats matches on its own, variables acting as wildcards: the
// cardinality of the pattern a BGP evaluation starts from, which is the
// mediator's row estimate for a graph atom. It returns -1 when pats is
// empty. It counts like the evaluator does, never past the best count
// so far and not at all after an empty pattern, so the minimum is exact
// without scanning every pattern's whole index range.
func (g *Graph) MinPatternCount(pats []TriplePattern) int {
	if len(pats) == 0 {
		return -1
	}
	e := compileBGP(g, BGP{Patterns: pats}, nil)
	_, n := e.cheapest(e.required)
	return n
}

func validateWithInit(q BGP, init Bindings) error {
	body := make(map[string]struct{})
	for _, v := range q.AllVars() {
		body[v] = struct{}{}
	}
	for _, v := range q.Head {
		if _, ok := body[v]; ok {
			continue
		}
		if _, ok := init[v]; ok {
			continue
		}
		return fmt.Errorf("rdf: head variable ?%s not in query body", v)
	}
	for _, f := range q.Filters {
		if _, ok := body[f.Var]; ok {
			continue
		}
		if _, ok := init[f.Var]; ok {
			continue
		}
		return fmt.Errorf("rdf: filter variable ?%s not in query body", f.Var)
	}
	return nil
}

// absentID stands for a term missing from the graph's dictionary: a
// pattern position holding it matches nothing. Dictionaries hand out
// IDs densely from 1, so this one is never assigned.
const absentID = ^TermID(0)

// slotPos is one compiled pattern position: a variable's slot, or a
// constant's TermID (absentID when the dictionary lacks it).
type slotPos struct {
	slot int // variable slot; -1 for a constant
	id   TermID
}

type compiledPattern [3]slotPos

// headCol says where an emitted column comes from: a variable's slot,
// or (slot -1) the init term of a variable the call bound up front.
type headCol struct {
	slot int
	init Term
}

// evaluator is one BGP evaluation compiled into term-ID space. Every
// body variable owns a slot of vals, which holds its bound TermID
// (NoTerm while unbound) and is set and unset in place as patterns
// match, so a step allocates no bindings. Patterns are permuted in
// place as the greedy order picks them and restored on the way back.
type evaluator struct {
	g         *Graph
	slots     map[string]int
	vals      []TermID
	filters   [][]Filter // per slot: tested against the decoded term when it binds
	required  []compiledPattern
	optionals [][]compiledPattern
	head      []headCol
	rows      [][][3]TermID // per recursion depth: the matches being walked
	sols      *Solutions
}

// compileBGP numbers q's variables into slots, looks each constant and
// each init term up once, and attaches every filter on a variable the
// evaluation binds to its slot (filters on init variables are the
// caller's to test, once).
func compileBGP(g *Graph, q BGP, init Bindings) *evaluator {
	vars := q.AllVars()
	e := &evaluator{
		g:       g,
		slots:   make(map[string]int, len(vars)),
		vals:    make([]TermID, len(vars)),
		filters: make([][]Filter, len(vars)),
	}
	for i, v := range vars {
		e.slots[v] = i
		if t, ok := init[v]; ok {
			e.vals[i] = e.lookup(t)
		}
	}
	for _, f := range q.Filters {
		if i, ok := e.slots[f.Var]; ok {
			if _, bound := init[f.Var]; !bound {
				e.filters[i] = append(e.filters[i], f)
			}
		}
	}
	compile := func(pats []TriplePattern) []compiledPattern {
		out := make([]compiledPattern, len(pats))
		for i, p := range pats {
			for j, pt := range [3]PatternTerm{p.S, p.P, p.O} {
				if pt.IsVar() {
					out[i][j] = slotPos{slot: e.slots[pt.Var]}
				} else {
					out[i][j] = slotPos{slot: -1, id: e.lookup(pt.Term)}
				}
			}
		}
		return out
	}
	e.required = compile(q.Patterns)
	depth := len(q.Patterns)
	for _, grp := range q.Optionals {
		e.optionals = append(e.optionals, compile(grp))
		depth += len(grp)
	}
	e.rows = make([][][3]TermID, depth)
	return e
}

func (e *evaluator) lookup(t Term) TermID {
	if id := e.g.dict.Lookup(t); id != NoTerm {
		return id
	}
	return absentID
}

// resolve returns p's positions under the current bindings (NoTerm is a
// wildcard) and false when one holds a term absent from the dictionary.
func (e *evaluator) resolve(p *compiledPattern) (ids [3]TermID, ok bool) {
	for j, pos := range p {
		id := pos.id
		if pos.slot >= 0 {
			id = e.vals[pos.slot]
		}
		if id == absentID {
			return ids, false
		}
		ids[j] = id
	}
	return ids, true
}

// count is min(matches of p under the current bindings, limit).
func (e *evaluator) count(p *compiledPattern, limit int) int {
	ids, ok := e.resolve(p)
	if !ok {
		return 0
	}
	return e.g.countIDs(ids[0], ids[1], ids[2], limit)
}

// cheapest returns the index of the first pattern of rem with the
// fewest matches under the current bindings, and that count. Each
// count stops at the best count so far, since a pattern that reaches
// it cannot win, and a count of 0 ends the search.
func (e *evaluator) cheapest(rem []compiledPattern) (best, bestCount int) {
	bestCount = e.count(&rem[0], math.MaxInt)
	for i := 1; i < len(rem) && bestCount > 0; i++ {
		if c := e.count(&rem[i], bestCount); c < bestCount {
			best, bestCount = i, c
		}
	}
	return best, bestCount
}

// solve enumerates the embeddings of rem under the current bindings and
// carries each on to the OPTIONAL groups after group (-1: rem is the
// required body). depth indexes the match buffer of this step. It
// reports whether any embedding was found.
func (e *evaluator) solve(rem []compiledPattern, depth, group int) bool {
	if len(rem) == 0 {
		e.extend(group+1, depth)
		return true
	}
	best := 0
	if len(rem) > 1 {
		var n int
		if best, n = e.cheapest(rem); n == 0 {
			return false
		}
	}
	p := rem[best]
	ids, ok := e.resolve(&p)
	if !ok {
		return false
	}
	// Unbound variable positions capture the match; a variable repeated
	// within the pattern (e.g. ?x ?p ?x) must capture equal IDs.
	var capPos [3]int
	ncaps := 0
	for j, pos := range p {
		if pos.slot >= 0 && ids[j] == NoTerm {
			capPos[ncaps] = j
			ncaps++
		}
	}
	// Collect first: the graph's read lock must not be held across the
	// recursion.
	rows := e.rows[depth][:0]
	e.g.MatchIDs(ids[0], ids[1], ids[2], func(s, p, o TermID) bool {
		rows = append(rows, [3]TermID{s, p, o})
		return true
	})
	e.rows[depth] = rows

	// Move the chosen pattern to the front, keeping the others in their
	// order (the tie-break of later steps), and put it back afterwards.
	copy(rem[1:best+1], rem[:best])
	rem[0] = p
	found := false
	for _, r := range rows {
		if e.bind(&p, capPos[:ncaps], r) && e.solve(rem[1:], depth+1, group) {
			found = true
		}
		for _, j := range capPos[:ncaps] {
			e.vals[p[j].slot] = NoTerm
		}
	}
	copy(rem[:best], rem[1:best+1])
	rem[best] = p
	return found
}

// bind sets the slots of p's capturing positions from one matched
// triple and reports whether repeated variables agree and every filter
// on a newly bound variable holds. The caller unsets the slots either
// way.
func (e *evaluator) bind(p *compiledPattern, capPos []int, r [3]TermID) bool {
	for _, j := range capPos {
		slot := p[j].slot
		if cur := e.vals[slot]; cur != NoTerm {
			if cur != r[j] {
				return false
			}
			continue
		}
		e.vals[slot] = r[j]
	}
	for _, j := range capPos {
		slot := p[j].slot
		if len(e.filters[slot]) == 0 {
			continue
		}
		t := e.g.dict.Term(e.vals[slot])
		for _, f := range e.filters[slot] {
			if !f.eval(t) {
				return false
			}
		}
	}
	return true
}

// extend applies the OPTIONAL groups from index k on, in order: a group
// that matches multiplies the solution, one that does not passes it
// through with its variables unbound. Past the last group it emits the
// head row.
func (e *evaluator) extend(k, depth int) {
	if k < len(e.optionals) {
		if !e.solve(e.optionals[k], depth, k) {
			e.extend(k+1, depth)
		}
		return
	}
	row := make([]Term, len(e.head))
	for i, h := range e.head {
		switch {
		case h.slot < 0:
			row[i] = h.init
		case e.vals[h.slot] != NoTerm:
			row[i] = e.g.dict.Term(e.vals[h.slot])
		}
		// Otherwise the zero Term: unbound after an OPTIONAL miss.
	}
	e.sols.Rows = append(e.sols.Rows, row)
}

// Sort orders rows lexically by their term keys; useful for deterministic
// test comparison.
func (s *Solutions) Sort() {
	sort.Slice(s.Rows, func(i, j int) bool {
		a, b := s.Rows[i], s.Rows[j]
		for k := range a {
			ka, kb := a[k].Key(), b[k].Key()
			if ka != kb {
				return ka < kb
			}
		}
		return false
	})
}

// Len returns the number of solution rows.
func (s *Solutions) Len() int { return len(s.Rows) }

// Maps converts the solutions to a slice of Bindings maps.
func (s *Solutions) Maps() []Bindings {
	out := make([]Bindings, len(s.Rows))
	for i, row := range s.Rows {
		m := make(Bindings, len(s.Vars))
		for j, v := range s.Vars {
			m[v] = row[j]
		}
		out[i] = m
	}
	return out
}

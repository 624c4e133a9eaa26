package rdf

import "testing"

// FuzzParseBGP feeds arbitrary text to ParseBGP. Parsing must never
// panic, and a BGP it accepts must evaluate on a small graph without
// panicking or failing validation, with and without an init binding.
// The seed corpus (testdata/fuzz/FuzzParseBGP) holds the GRAPH shapes
// of the benchmark workloads.
func FuzzParseBGP(f *testing.F) {
	prefixes := map[string]string{
		"":    "http://tatooine.example/",
		"pol": "http://tatooine.example/pol/",
		"pty": "http://tatooine.example/party/",
	}
	g := NewGraph()
	g.AddAll(MustParse(`
@prefix : <http://tatooine.example/> .
@prefix pol: <http://tatooine.example/pol/> .
@prefix pty: <http://tatooine.example/party/> .
pol:POL00042 a :politician ; foaf:name "Anne Martin" ; :position :deputy ;
  :memberOf pty:PS ; :electedIn "13" ; :twitterAccount "amartin" ; :gender "F" .
pol:POL00043 a :politician ; foaf:name "Jean Dupont" ; :position :mayor ;
  :memberOf pty:LR ; :electedIn "75" ; :twitterAccount "jdupont" .
pty:PS :currentOf :left ; :epGroup :SD .
pty:LR :currentOf :right ; :epGroup :EPP .
`))
	f.Fuzz(func(t *testing.T, text string) {
		q, err := ParseBGP(text, prefixes)
		if err != nil {
			return
		}
		if _, err := Evaluate(g, q); err != nil {
			t.Fatalf("Evaluate(%q): %v", text, err)
		}
		if vars := q.AllVars(); len(vars) > 0 {
			init := Bindings{vars[0]: NewIRI("http://tatooine.example/pol/POL00042")}
			if _, err := EvaluateBound(g, q, init); err != nil {
				t.Fatalf("EvaluateBound(%q): %v", text, err)
			}
		}
		g.MinPatternCount(q.Patterns)
	})
}

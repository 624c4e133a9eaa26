package rdf

import (
	"fmt"
	"path/filepath"
	"testing"

	"tatooine/internal/pager"
	"tatooine/internal/store"
)

// BenchmarkEvaluateBGP evaluates the benchmark's two graph-read shapes
// on a store-backed graph of 6,000 politicians (about 38k triples)
// under a 64-page (256 KiB) page cache, so index ranges and dictionary
// pages are read through the pager as on a large instance:
//
//   - scan: three constant patterns that each match hundreds to
//     thousands of politicians, plus their names (the bgp_scan shape);
//   - join: one politician's party, its current and European group, and
//     the department (the bgp_join shape), a different politician each
//     iteration.
func BenchmarkEvaluateBGP(b *testing.B) {
	st, err := store.Open(filepath.Join(b.TempDir(), "bench.db"),
		store.Options{Pager: pager.Options{CacheSize: 64, NoSync: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	g, err := OpenGraph(st, "g")
	if err != nil {
		b.Fatal(err)
	}
	const (
		ns   = "http://tatooine.example/"
		pols = 6000
	)
	iri := func(format string, a ...any) Term { return NewIRI(ns + fmt.Sprintf(format, a...)) }
	positions := []string{"deputy", "senator", "mayor", "councillor", "minister"}
	var ts []Triple
	for p := 0; p < 8; p++ {
		ts = append(ts,
			Triple{iri("party/P%d", p), iri("currentOf"), iri("current%d", p%3)},
			Triple{iri("party/P%d", p), iri("epGroup"), iri("group%d", p%4)})
	}
	for i := 0; i < pols; i++ {
		x := iri("pol/POL%05d", i)
		ts = append(ts,
			Triple{x, iri("memberOf"), iri("party/P%d", i%8)},
			Triple{x, iri("position"), iri(positions[i%len(positions)])},
			Triple{x, iri("electedIn"), NewLiteral(fmt.Sprintf("%02d", i%20))},
			Triple{x, NewIRI(FOAFName), NewLiteral(fmt.Sprintf("Politician %d", i))},
			Triple{x, iri("twitterAccount"), NewLiteral(fmt.Sprintf("pol%d", i))},
			Triple{x, NewIRI(RDFType), iri("politician")})
	}
	g.AddBatch(ts)
	if err := st.Commit(); err != nil {
		b.Fatal(err)
	}
	prefixes := map[string]string{"": ns, "pol": ns + "pol/", "pty": ns + "party/"}

	b.Run("scan", func(b *testing.B) {
		q := MustParseBGP(`?x :memberOf pty:P3 . ?x :position :councillor . ?x :electedIn "03" . ?x foaf:name ?name`, prefixes)
		rows := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sols, err := Evaluate(g, q)
			if err != nil {
				b.Fatal(err)
			}
			rows = sols.Len()
		}
		if rows == 0 {
			b.Fatal("scan matched nothing")
		}
	})
	b.Run("join", func(b *testing.B) {
		qs := make([]BGP, 64)
		for i := range qs {
			id := fmt.Sprintf("POL%05d", (i*97)%pols)
			qs[i] = MustParseBGP(fmt.Sprintf(
				`pol:%s :memberOf ?p . ?p :currentOf ?cur . ?p :epGroup ?grp . pol:%s :electedIn ?dept`, id, id), prefixes)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sols, err := Evaluate(g, qs[i%len(qs)])
			if err != nil {
				b.Fatal(err)
			}
			if sols.Len() != 1 {
				b.Fatalf("join: %d rows, want 1", sols.Len())
			}
		}
	})
	if err := g.StoreErr(); err != nil {
		b.Fatal(err)
	}
}

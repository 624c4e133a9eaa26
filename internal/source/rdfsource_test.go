package source

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tatooine/internal/rdf"
	"tatooine/internal/store"
	"tatooine/internal/value"
)

var errInjected = errors.New("injected read failure")

// failingStore hands out keyspaces whose reads fail once *fail is set.
type failingStore struct {
	store.Store
	fail *bool
}

func (s failingStore) Keyspace(name string) (store.KV, error) {
	kv, err := s.Store.Keyspace(name)
	if err != nil {
		return nil, err
	}
	return failingKV{KV: kv, fail: s.fail}, nil
}

type failingKV struct {
	store.KV
	fail *bool
}

func (kv failingKV) Get(key []byte) ([]byte, bool, error) {
	if *kv.fail {
		return nil, false, errInjected
	}
	return kv.KV.Get(key)
}

func (kv failingKV) Scan(prefix []byte, fn func(key, value []byte) bool) error {
	if *kv.fail {
		return errInjected
	}
	return kv.KV.Scan(prefix, fn)
}

func (kv failingKV) ScanFrom(start []byte, fn func(key, value []byte) bool) error {
	if *kv.fail {
		return errInjected
	}
	return kv.KV.ScanFrom(start, fn)
}

// A read that fails under a store-backed graph leaves the evaluator a
// short answer; the source must turn it into an error naming the cause.
func TestRDFSourceFailsOnStoreError(t *testing.T) {
	fail := false
	g, err := rdf.OpenGraph(failingStore{Store: store.Mem(), fail: &fail}, "g")
	if err != nil {
		t.Fatal(err)
	}
	polGraph(t).CopyTo(g)
	s := NewRDFSource("rdf://politics", g, false)
	q := SubQuery{
		Language: LangBGP,
		Text:     `q(?x, ?id) :- ?x <http://t.example/twitterAccount> ?id`,
		InVars:   []string{"?x"},
	}
	pol := value.Row{value.NewString("http://t.example/pol/POL02")}
	res, err := s.Execute(q, pol)
	if err != nil || res.Len() != 1 {
		t.Fatalf("healthy store: %v rows, err %v", res, err)
	}

	fail = true
	if _, err := s.Execute(q, pol); !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "rdf://politics") {
		t.Fatalf("Execute on a failing store: err %v, want the injected failure and the source", err)
	}
	if _, err := s.ExecuteBatch(q, []value.Row{pol, pol}); !errors.Is(err, errInjected) {
		t.Fatalf("ExecuteBatch on a failing store: err %v, want the injected failure", err)
	}
}

// Estimate's row figure is the exact minimum over the BGP's patterns of
// the triples each matches alone, counted here by brute force.
func TestRDFSourceEstimateIsMinPatternCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := rdf.NewGraph()
	for i := 0; i < 400; i++ {
		g.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://e/s%d", rng.Intn(40))),
			P: rdf.NewIRI(fmt.Sprintf("http://e/p%d", rng.Intn(5))),
			O: rdf.NewIRI(fmt.Sprintf("http://e/s%d", rng.Intn(40))),
		})
	}
	all := g.Triples()
	s := NewRDFSource("rdf://g", g, false).WithPrefixes(map[string]string{"e": "http://e/"})
	term := func() string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("e:s%d", rng.Intn(41)) // s40 is in no triple
		case 1:
			return fmt.Sprintf("e:p%d", rng.Intn(5))
		default:
			return []string{"?x", "?y", "?z"}[rng.Intn(3)]
		}
	}
	for i := 0; i < 300; i++ {
		var pats []string
		for n := 1 + rng.Intn(4); n > 0; n-- {
			pats = append(pats, term()+" "+term()+" "+term())
		}
		text := strings.Join(pats, " . ")
		bgp, err := rdf.ParseBGP(text, map[string]string{"e": "http://e/"})
		if err != nil {
			t.Fatal(err)
		}
		want := -1
		for _, p := range bgp.Patterns {
			n := 0
			for _, tr := range all {
				if (p.S.IsVar() || p.S.Term == tr.S) && (p.P.IsVar() || p.P.Term == tr.P) && (p.O.IsVar() || p.O.Term == tr.O) {
					n++
				}
			}
			if want < 0 || n < want {
				want = n
			}
		}
		rows, cost := s.Estimate(SubQuery{Language: LangBGP, Text: text}, 0)
		if rows != want || cost != want+len(bgp.Patterns) {
			t.Fatalf("Estimate(%s) = (%d, %d), want (%d, %d)", text, rows, cost, want, want+len(bgp.Patterns))
		}
	}
}

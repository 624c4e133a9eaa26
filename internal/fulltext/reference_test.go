package fulltext

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"tatooine/internal/doc"
	"tatooine/internal/value"
)

// refCorpus is a brute-force reference evaluator: it keeps the raw
// documents and answers a query by scanning every one of them, with no
// posting list, so it shares no evaluation code with the index.
type refCorpus struct {
	schema Schema
	docs   []*doc.Document
	an     *Analyzer
	// tokens holds each text field's analyzed tokens per document.
	tokens map[string][][]string
}

func newRefCorpus(schema Schema, docs []*doc.Document) *refCorpus {
	r := &refCorpus{schema: schema, docs: docs, an: NewAnalyzer(), tokens: make(map[string][][]string)}
	for field, ft := range schema {
		if ft != TextField {
			continue
		}
		per := make([][]string, len(docs))
		for i, d := range docs {
			for _, v := range d.Values(field) {
				per[i] = append(per[i], r.an.Tokens(v.String())...)
			}
		}
		r.tokens[field] = per
	}
	return r
}

// search returns every matching document ordered by score descending,
// then ID.
func (r *refCorpus) search(q Query) []Hit {
	var hits []Hit
	for i, d := range r.docs {
		if ok, score := r.match(q, i); ok {
			hits = append(hits, Hit{ID: d.ID, Score: score, Doc: d})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	return hits
}

func (r *refCorpus) match(q Query, i int) (bool, float64) {
	switch x := q.(type) {
	case AllQuery:
		return true, 0
	case KeywordQuery:
		if r.schema[x.Field] != KeywordField {
			return false, 0
		}
		for _, v := range r.docs[i].Values(x.Field) {
			if Fold(v.String()) == Fold(x.Value) {
				return true, 1
			}
		}
		return false, 0
	case TermQuery:
		terms := r.an.Tokens(x.Term)
		if len(terms) == 0 {
			return false, 0
		}
		return r.matchTerms(x.Field, terms[:1], false, i)
	case MatchQuery:
		return r.matchTerms(x.Field, r.an.Tokens(x.Text), x.RequireAll, i)
	case PhraseQuery:
		terms := r.an.Tokens(x.Text)
		ok, score := r.matchTerms(x.Field, terms, true, i)
		if !ok {
			return false, 0
		}
		toks := r.tokens[x.Field][i]
		for start := 0; start+len(terms) <= len(toks); start++ {
			if equalStrings(toks[start:start+len(terms)], terms) {
				return true, score
			}
		}
		return false, 0
	case RangeQuery:
		lo, hi := refBound(x.Min, math.Inf(-1)), refBound(x.Max, math.Inf(1))
		for _, v := range r.docs[i].Values(x.Field) {
			if f, ok := refNumber(v, r.schema[x.Field]); ok && f >= lo && f <= hi {
				return true, 1
			}
		}
		return false, 0
	case BoolQuery:
		score := 0.0
		for _, sub := range x.Must {
			ok, s := r.match(sub, i)
			if !ok {
				return false, 0
			}
			score += s
		}
		if len(x.Should) > 0 {
			any, should := false, 0.0
			for _, sub := range x.Should {
				if ok, s := r.match(sub, i); ok {
					any = true
					should += s
				}
			}
			if !any {
				return false, 0
			}
			score += should
		}
		for _, sub := range x.MustNot {
			if ok, _ := r.match(sub, i); ok {
				return false, 0
			}
		}
		return true, score
	}
	panic(fmt.Sprintf("reference: unsupported query %T", q))
}

// matchTerms scores document i by BM25 over terms, computing every
// statistic (document frequency, average length) by a corpus scan.
func (r *refCorpus) matchTerms(field string, terms []string, requireAll bool, i int) (bool, float64) {
	if r.schema[field] != TextField || len(terms) == 0 {
		return false, 0
	}
	per := r.tokens[field]
	n := float64(len(r.docs))
	total := 0
	for _, toks := range per {
		total += len(toks)
	}
	avgLen := 1.0
	if total > 0 {
		avgLen = float64(total) / n
	}
	matched, score := 0, 0.0
	for _, term := range terms {
		tf := countString(per[i], term)
		if tf == 0 {
			continue
		}
		df := 0
		for _, toks := range per {
			if countString(toks, term) > 0 {
				df++
			}
		}
		idf := math.Log(1 + (n-float64(df)+0.5)/(float64(df)+0.5))
		dl := float64(len(per[i]))
		score += idf * (float64(tf) * (bm25K1 + 1)) / (float64(tf) + bm25K1*(1-bm25B+bm25B*dl/avgLen))
		matched++
	}
	if matched == 0 || requireAll && matched < len(terms) {
		return false, 0
	}
	return true, score
}

func countString(xs []string, s string) int {
	n := 0
	for _, x := range xs {
		if x == s {
			n++
		}
	}
	return n
}

func equalStrings(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// refNumber reads a generated numeric (int) or time (RFC3339 string)
// value as a float.
func refNumber(v value.Value, ft FieldType) (float64, bool) {
	switch {
	case ft == NumericField && v.Kind() == value.Int:
		return float64(v.Int()), true
	case ft == TimeField && v.Kind() == value.String:
		ts, err := time.Parse(time.RFC3339, v.String())
		if err != nil {
			return 0, false
		}
		return float64(ts.UnixNano()), true
	}
	return 0, false
}

func refBound(v value.Value, open float64) float64 {
	switch v.Kind() {
	case value.Null:
		return open
	case value.Int:
		return float64(v.Int())
	}
	ts, err := time.Parse(time.RFC3339, v.String())
	if err != nil {
		panic(err)
	}
	return float64(ts.UnixNano())
}

var (
	refWords   = []string{"solidarité", "nationale", "agriculteurs", "salon", "état", "urgence", "débat", "Paris", "les", "la", "économie", "#SIA2016", "votent", "députés", "agriculture"}
	refAuthors = []string{"fhollande", "FHollande", "jdupont", "amartin", "Élise"}
	refTags    = []string{"SIA2016", "sia2016", "EtatDurgence", "agriculture", "économie"}
	refEpoch   = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
)

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

func refTimestamp(rng *rand.Rand) string {
	return refEpoch.Add(time.Duration(rng.Intn(240)) * time.Hour).Format(time.RFC3339)
}

// randomDocs generates n tweets. Any field may be missing; hashtags and
// retweet counts may hold several (possibly repeated) values. IDs are
// shuffled so ID order differs from insertion order.
func randomDocs(rng *rand.Rand, n int) []*doc.Document {
	perm := rng.Perm(n)
	docs := make([]*doc.Document, n)
	for i := range docs {
		d := &doc.Document{ID: fmt.Sprintf("d%03d", perm[i])}
		if rng.Intn(8) > 0 {
			words := make([]string, rng.Intn(9))
			for k := range words {
				words[k] = pick(rng, refWords)
			}
			d.Set("text", strings.Join(words, " "))
		}
		if rng.Intn(8) > 0 {
			d.Set("user.screen_name", pick(rng, refAuthors))
		}
		tags := make([]any, rng.Intn(4))
		for k := range tags {
			tags[k] = pick(rng, refTags)
		}
		d.Set("entities.hashtags", tags)
		switch rng.Intn(4) {
		case 0:
		case 1:
			d.Set("retweet_count", []any{rng.Intn(50), rng.Intn(50)})
		default:
			d.Set("retweet_count", rng.Intn(50))
		}
		if rng.Intn(6) > 0 {
			d.Set("created_at", refTimestamp(rng))
		}
		docs[i] = d
	}
	return docs
}

// randomQuery builds a query tree; depth bounds BoolQuery nesting.
func randomQuery(rng *rand.Rand, docs []*doc.Document, depth int) Query {
	if depth > 0 && rng.Intn(3) == 0 {
		var b BoolQuery
		for k := rng.Intn(4); k > 0; k-- {
			b.Must = append(b.Must, randomQuery(rng, docs, depth-1))
		}
		for k := rng.Intn(3); k > 0; k-- {
			b.Should = append(b.Should, randomQuery(rng, docs, depth-1))
		}
		for k := rng.Intn(3); k > 0; k-- {
			b.MustNot = append(b.MustNot, randomQuery(rng, docs, depth-1))
		}
		return b
	}
	switch rng.Intn(7) {
	case 0:
		return KeywordQuery{Field: "user.screen_name", Value: pick(rng, append(refAuthors, "absent"))}
	case 1:
		return KeywordQuery{Field: "entities.hashtags", Value: pick(rng, refTags)}
	case 2:
		return TermQuery{Field: "text", Term: pick(rng, refWords)}
	case 3:
		return MatchQuery{Field: "text", Text: pick(rng, refWords) + " " + pick(rng, refWords), RequireAll: rng.Intn(2) == 0}
	case 4:
		// Mostly a run of words from a document, so phrases do match.
		words := strings.Fields(pick(rng, refWords) + " " + pick(rng, refWords))
		if d := docs[rng.Intn(len(docs))]; rng.Intn(4) > 0 && len(d.Values("text")) > 0 {
			if all := strings.Fields(d.Values("text")[0].String()); len(all) > 0 {
				start := rng.Intn(len(all))
				words = all[start:min(len(all), start+1+rng.Intn(3))]
			}
		}
		return PhraseQuery{Field: "text", Text: strings.Join(words, " ")}
	case 5:
		lo, hi := value.NewInt(int64(rng.Intn(50))), value.NewInt(int64(rng.Intn(50)))
		switch rng.Intn(3) {
		case 0:
			lo = value.NewNull()
		case 1:
			hi = value.NewNull()
		}
		return RangeQuery{Field: "retweet_count", Min: lo, Max: hi}
	default:
		lo, hi := value.NewString(refTimestamp(rng)), value.NewString(refTimestamp(rng))
		if rng.Intn(3) == 0 {
			hi = value.NewNull()
		}
		return RangeQuery{Field: "created_at", Min: lo, Max: hi}
	}
}

// TestSearchMatchesReference checks the index against the brute-force
// evaluator on random corpora and random query trees: the same hit IDs,
// scores within 1e-9, and the same order.
func TestSearchMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs := randomDocs(rng, 20+rng.Intn(60))
		ix := NewIndex("tweets", tweetSchema())
		for _, d := range docs {
			if err := ix.Add(d); err != nil {
				t.Fatal(err)
			}
		}
		ref := newRefCorpus(tweetSchema(), docs)
		for k := 0; k < 50; k++ {
			q := randomQuery(rng, docs, 2)
			got, err := ix.Search(q, SearchOptions{})
			if err != nil {
				t.Fatalf("seed %d: %#v: %v", seed, q, err)
			}
			want := ref.search(q)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %#v:\n got %v\nwant %v", seed, q, ids(got), ids(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("seed %d: %#v: hit %d is %s (%v), want %s (%v)",
						seed, q, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
				}
			}
		}
	}
}

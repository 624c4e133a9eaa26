package fulltext

import (
	"fmt"
	"math/rand"
	"testing"

	"tatooine/internal/value"
)

// BenchmarkSearchKeywordConjunction measures the bind-join probe of the
// paper's qSIA, fact-source and aggregated-head queries:
// user.screen_name = ? AND entities.hashtags = '<tag>' over 20,000
// tweets by 400 authors (about 50 each), where the four hashtags' lists
// hold roughly 12,000, 6,000, 3,000 and 1,300 tweets.
func BenchmarkSearchKeywordConjunction(b *testing.B) {
	tags := []string{"SIA2016", "economie", "EtatDurgence", "agriculture"}
	shares := []float64{0.6, 0.3, 0.15, 0.066}
	const tweets, authors = 20000, 400
	rng := rand.New(rand.NewSource(1))
	ix := NewIndex("tweets", tweetSchema())
	for i := 0; i < tweets; i++ {
		var hashtags []string
		for k, tag := range tags {
			if rng.Float64() < shares[k] {
				hashtags = append(hashtags, tag)
			}
		}
		author := fmt.Sprintf("author%03d", rng.Intn(authors))
		if err := ix.Add(mkTweet(fmt.Sprintf("t%05d", i), author, "tweet", hashtags, i%500, "2016-03-01T00:00:00Z")); err != nil {
			b.Fatal(err)
		}
	}
	probes := make([]*TextQuery, len(tags))
	for k, tag := range tags {
		q, err := ParseTextQuery(fmt.Sprintf("SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = '%s' RETURN _id, user.screen_name", tag))
		if err != nil {
			b.Fatal(err)
		}
		probes[k] = q
	}
	params := make([][]value.Value, authors)
	for a := range params {
		params[a] = []value.Value{value.NewString(fmt.Sprintf("author%03d", a))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		_, r, err := probes[i%len(probes)].Execute(ix, params[i%authors])
		if err != nil {
			b.Fatal(err)
		}
		rows += len(r)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

package fulltext

import (
	"testing"

	"tatooine/internal/value"
)

func TestParseTextQueryFull(t *testing.T) {
	q, err := ParseTextQuery(`SEARCH tweets
WHERE entities.hashtags = ? AND text CONTAINS 'solidarité'
      AND retweet_count >= 100 AND created_at BETWEEN 2016-01-01T00:00:00Z AND 2016-12-31T00:00:00Z
      AND favorite_count <= 1000 AND text PHRASE 'solidarité nationale'
RETURN _id, user.screen_name, _score
ORDER BY retweet_count DESC LIMIT 50`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Index != "tweets" || len(q.Conds) != 6 || q.NumParams != 1 {
		t.Fatalf("parsed: %+v", q)
	}
	ops := []CondOp{CondEq, CondContains, CondGe, CondBetween, CondLe, CondPhrase}
	for i, want := range ops {
		if q.Conds[i].Op != want {
			t.Errorf("cond %d op %v, want %v", i, q.Conds[i].Op, want)
		}
	}
	if q.Conds[0].Param != 0 || q.Conds[1].Param != -1 {
		t.Errorf("params: %+v", q.Conds[:2])
	}
	if len(q.Returns) != 3 || q.Returns[2] != "_score" {
		t.Errorf("returns: %v", q.Returns)
	}
	if q.OrderBy != "retweet_count" || !q.Desc || q.Limit != 50 {
		t.Errorf("order/limit: %+v", q)
	}
}

func TestParseTextQueryNoWhere(t *testing.T) {
	q, err := ParseTextQuery("SEARCH tweets RETURN _id LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Conds) != 0 || q.Limit != 3 {
		t.Errorf("parsed: %+v", q)
	}
}

func TestParseTextQueryErrors(t *testing.T) {
	cases := []string{
		"",
		"FIND tweets RETURN _id",
		"SEARCH tweets",
		"SEARCH tweets WHERE RETURN _id",
		"SEARCH tweets WHERE f = RETURN _id",
		"SEARCH tweets WHERE f LIKE 'x' RETURN _id",
		"SEARCH tweets WHERE f BETWEEN 1 RETURN _id",
		"SEARCH tweets RETURN _id ORDER retweets",
		"SEARCH tweets RETURN _id LIMIT xx",
		"SEARCH tweets RETURN _id trailing",
		"SEARCH tweets WHERE f = 'unterminated RETURN _id",
	}
	for _, c := range cases {
		if _, err := ParseTextQuery(c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestTextQueryExecuteAllCondKinds(t *testing.T) {
	ix := testIndex(t)
	q, err := ParseTextQuery(`SEARCH tweets
WHERE text CONTAINS 'agriculteurs' AND retweet_count BETWEEN 1 AND 100
RETURN _id, retweet_count ORDER BY retweet_count`)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows, err := q.Execute(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || len(rows) != 2 { // t2 (12), t4 (5) — ascending
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0][1].Int() != 5 || rows[1][1].Int() != 12 {
		t.Errorf("ascending order: %+v", rows)
	}
}

func TestTextQueryExecuteScoreAndMissingField(t *testing.T) {
	ix := testIndex(t)
	q, err := ParseTextQuery(`SEARCH tweets WHERE text CONTAINS 'solidarité' RETURN _score, user.missing`)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := q.Execute(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if rows[0][0].Kind() != value.Float || rows[0][0].Float() <= 0 {
		t.Errorf("score: %v", rows[0][0])
	}
	if !rows[0][1].IsNull() {
		t.Errorf("missing field should be NULL: %v", rows[0][1])
	}
}

func TestTextQueryMissingParams(t *testing.T) {
	ix := testIndex(t)
	q, _ := ParseTextQuery(`SEARCH tweets WHERE entities.hashtags = ? RETURN _id`)
	if _, _, err := q.Execute(ix, nil); err == nil {
		t.Error("missing params accepted")
	}
}

func TestTextQueryPhraseViaText(t *testing.T) {
	ix := testIndex(t)
	q, err := ParseTextQuery(`SEARCH tweets WHERE text PHRASE 'solidarité nationale' RETURN _id`)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := q.Execute(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Str() != "t1" {
		t.Errorf("phrase rows: %+v", rows)
	}
}

func TestAnalyzerNoStem(t *testing.T) {
	a := NewAnalyzerNoStem()
	toks := a.Tokens("les agriculteurs")
	if len(toks) != 1 || toks[0] != "agriculteurs" {
		t.Errorf("no-stem tokens: %v", toks)
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("les") || !IsStopword("THE") {
		t.Error("stopword detection")
	}
	if IsStopword("agriculture") {
		t.Error("false stopword")
	}
}

// Property: analysis is idempotent — re-analyzing the analyzed tokens
// yields the same tokens (stemming reaches a fixpoint for our corpus
// vocabulary; guard against oscillation regressions).
func TestAnalyzerIdempotentOnVocab(t *testing.T) {
	a := NewAnalyzer()
	vocab := []string{
		"solidarité nationale", "les agriculteurs manifestent",
		"l'état d'urgence", "perquisitions excès libertés",
		"#SIA2016 au salon", "chômage économie croissance",
	}
	for _, text := range vocab {
		once := a.Tokens(text)
		for _, tok := range once {
			again := a.Tokens(tok)
			if len(again) > 1 {
				t.Errorf("token %q re-split: %v", tok, again)
				continue
			}
			if len(again) == 1 && again[0] != tok && LightStem(again[0]) != tok {
				// One extra stemming round is tolerated only if stable after.
				third := a.Tokens(again[0])
				if len(third) != 1 || third[0] != again[0] {
					t.Errorf("token %q unstable: %v -> %v", tok, again, third)
				}
			}
		}
	}
}

// FuzzParseTextQuery checks that no input makes the SEARCH parser, the
// query builder or the evaluator panic: whatever parses builds with
// enough parameters (each the fuzzed param string, parsed as a literal)
// and then runs against a small index. The seed corpus in
// testdata/fuzz holds the SEARCH shapes of the paper's queries.
func FuzzParseTextQuery(f *testing.F) {
	ix := testIndex(f)
	f.Fuzz(func(t *testing.T, text, param string) {
		q, err := ParseTextQuery(text)
		if err != nil {
			return
		}
		params := make([]value.Value, q.NumParams)
		for i := range params {
			params[i] = value.Parse(param, false)
		}
		if _, _, err := q.Build(params); err != nil {
			t.Fatalf("Build with %d parameters: %v", q.NumParams, err)
		}
		_, _, _ = q.Execute(ix, params) // unknown fields are errors, not panics
	})
}

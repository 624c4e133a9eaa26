package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"tatooine/internal/datagen"
	"tatooine/internal/fulltext"
	"tatooine/internal/xmlstore"
)

// workload describes one named benchmark workload: the data it serves,
// how the mediator is started, and the request mix its clients draw.
type workload struct {
	name        string
	politicians int
	tweets      int

	durable      bool // serve from an on-disk data directory (warm reopen)
	pageCacheMB  int  // -page-cache-mb for the durable instance
	joinBudgetMB int  // -join-mem-budget; 0 leaves the production default
	federated    bool // solr://tweets and sql://insee served over loopback

	mutations   int     // mutations in every deck of deckSize operations
	ndjsonShare float64 // share of reads that ask for NDJSON
	coldQuery   string  // the fixed query issued right after ready
}

const (
	// remoteDelayMs is the fixed delay the federated workload's
	// remote-side wrapper adds to every request.
	remoteDelayMs = 2
	// setupRounds is how many times a run starts the mediator to
	// measure set-up time; the last start serves the load.
	setupRounds = 5
	// mutationTime is how long every client keeps mutating after the read
	// loop, so every workload reports mutation latency. A fixed time,
	// not a fixed count, spans several GC cycles on each workload.
	mutationTime = 4 * time.Second
)

var workloads = map[string]*workload{
	"newsroom": {
		name: "newsroom", politicians: 300, tweets: 20000,
		ndjsonShare: 0.25,
		coldQuery:   qsiaCommon("deputy", "EtatDurgence", ""),
	},
	"federated": {
		name: "federated", politicians: 300, tweets: 20000, federated: true,
		ndjsonShare: 0.25,
		coldQuery:   qsiaCommon("deputy", "EtatDurgence", ""),
	},
	"archive-live": {
		name: "archive-live", politicians: 47000, tweets: 0,
		durable: true, pageCacheMB: 16, joinBudgetMB: 1,
		mutations: 30, ndjsonShare: 0.25,
		coldQuery: bgpScan("LR", "deputy", "75"),
	},
}

// dataSeed seeds the generated dataset and the request pool. They are
// the same for every run, so runs with different workload seeds (which
// vary the traffic drawn from the pool) measure the same data, and the
// golden answers cover every request any seed can send.
const dataSeed = 1

func (w *workload) config() datagen.Config {
	cfg := datagen.DefaultConfig()
	cfg.Seed = dataSeed
	cfg.NumPoliticians = w.politicians
	cfg.NumTweets = w.tweets
	return cfg
}

// family is one query family of a workload's mix: how many of its
// requests each deck of deckSize operations holds, and the distinct
// request texts it draws from.
type family struct {
	name     string
	perDeck  int
	variants []string
}

// pool is the seeded request population of a workload.
type pool struct {
	families []family
	reads    int // reads per deck: the sum of the families' perDeck
}

// draw picks a request with the families' deck shares.
func (p *pool) draw(rng *rand.Rand) (fam, text string) {
	x := rng.Intn(p.reads)
	f := p.families[len(p.families)-1]
	for _, c := range p.families {
		if x < c.perDeck {
			f = c
			break
		}
		x -= c.perDeck
	}
	return f.name, f.variants[rng.Intn(len(f.variants))]
}

// deckSize is the length of one deck of a client's operation stream.
// Each deck holds every kind of operation in its exact count, in a
// seeded order, so a run's mix of cheap and costly operations does not
// vary with the luck of the draw.
const deckSize = 200

// deck returns one shuffled deck of operation kinds: an index into the
// families, or -1 for a mutation.
func (p *pool) deck(mutations int, rng *rand.Rand) []int {
	d := make([]int, 0, deckSize)
	for i := 0; i < mutations; i++ {
		d = append(d, -1)
	}
	for i, f := range p.families {
		for j := 0; j < f.perDeck; j++ {
			d = append(d, i)
		}
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// distinct lists every request text of the pool once, in a fixed order.
func (p *pool) distinct() []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range p.families {
		for _, v := range f.variants {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// mix renders, for the run record, what every deck sends: each family's
// count and share of the reads, and the mutations.
func (p *pool) mix(mutations int) map[string]any {
	fams := map[string]any{}
	for _, f := range p.families {
		fams[f.name] = map[string]any{"per_deck": f.perDeck, "share_of_reads": float64(f.perDeck) / float64(p.reads),
			"variants": len(f.variants)}
	}
	return map[string]any{"deck_size": deckSize, "mutations_per_deck": mutations, "reads_per_deck": p.reads, "families": fams}
}

const prefix = "PREFIX pty: <" + datagen.NS + "party/>\nPREFIX pol: <" + datagen.NSPol + ">\n"

var (
	rareTags    = []string{"SIA2016", "economie", "education"}
	commonTags  = []string{"EtatDurgence", "economie"}
	allTags     = []string{"EtatDurgence", "SIA2016", "economie", "education"}
	positions   = []string{"deputy", "senator", "mayor", "minister", "MEP"}
	years       = []int{2014, 2015, 2016}
	indicators  = []string{"population", "communes", "entreprises"}
	regionNames = []string{"region1", "region2", "region3"}
)

func partyIDs() []string {
	var out []string
	for _, p := range datagen.Parties {
		out = append(out, p.ID)
	}
	return out
}

func deptCodes() []string {
	var out []string
	for _, d := range datagen.Departments {
		out = append(out, d[0])
	}
	return out
}

// qsiaCommon is the paper's qSIA query over a whole position, optionally
// narrowed to one department: common selectivity, large answers.
func qsiaCommon(position, tag, dept string) string {
	where := ""
	if dept != "" {
		where = fmt.Sprintf(` . ?x :electedIn "%s"`, dept)
	}
	return fmt.Sprintf(`QUERY qsia(?t, ?id)
GRAPH { ?x :position :%s . ?x :twitterAccount ?id%s }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = '%s' RETURN _id, user.screen_name }`,
		position, where, tag)
}

// qsiaRare is qSIA narrowed to one author: rare selectivity.
func qsiaRare(account, tag string) string {
	return fmt.Sprintf(`QUERY qsia(?t, ?name)
GRAPH { ?x :twitterAccount "%s" . ?x :twitterAccount ?id . ?x foaf:name ?name }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = '%s' RETURN _id, user.screen_name }`,
		account, tag)
}

// factSources chains graph → full-text → SQL (§3 scenario 1).
func factSources(party, position, tag string, year int) string {
	return fmt.Sprintf(`%sQUERY facts(?t, ?dept, ?taux)
GRAPH { ?x :memberOf pty:%s . ?x :position :%s . ?x :twitterAccount ?id . ?x :electedIn ?dept }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = '%s' RETURN _id, user.screen_name }
FROM <sql://insee> IN(?dept) OUT(?dept, ?taux)
  { SELECT dept, taux FROM chomage WHERE dept = ? AND annee = %d }`,
		prefix, party, position, tag, year)
}

// speeches chains graph → XPath: the speeches of one author.
func speeches(account string) string {
	return fmt.Sprintf(`QUERY sp(?name, ?spid, ?topic)
GRAPH { ?x :twitterAccount "%s" . ?x foaf:name ?name }
FROM <xml://speeches> IN(?name) OUT(?spid, ?topic)
  { XPATH /speeches/speech[@speaker=?] RETURN _id, topic }`, account)
}

// aggregatedHead is the GROUP BY / ORDER BY head over tweet volume.
func aggregatedHead(position, tag string) string {
	return fmt.Sprintf(`QUERY vol(?cur, COUNT(?t) AS ?n, COUNT(DISTINCT ?id) AS ?authors)
GRAPH { ?x :position :%s . ?x :memberOf ?p . ?p :currentOf ?cur . ?x :twitterAccount ?id }
FROM <solr://tweets> IN(?id) OUT(?t, ?id)
  { SEARCH tweets WHERE user.screen_name = ? AND entities.hashtags = '%s' RETURN _id, user.screen_name }
GROUP BY ?cur
ORDER BY ?n DESC`, position, tag)
}

// hashJoin joins the graph with an independent SQL scan: no bindings
// are pushed into the SQL atom, so the join runs as a residual hash
// join.
func hashJoin(position, gender, party string, year int) string {
	return fmt.Sprintf(`QUERY hj(?name, ?dept, ?voix)
GRAPH { ?x :position :%s . ?x :gender "%s" . ?x :electedIn ?dept . ?x foaf:name ?name }
FROM <sql://insee> OUT(?dept, ?voix)
  { SELECT dept, voix FROM resultats WHERE parti = '%s' AND annee = %d }`, position, gender, party, year)
}

// dynamicDiscovery finds a regional database's address in INSEE and
// ships part of the query there.
func dynamicDiscovery(region, indicator string) string {
	return fmt.Sprintf(`QUERY dyn(?region, ?src, ?val)
FROM <sql://insee> OUT(?region, ?src) { SELECT region, uri FROM endpoints WHERE region = '%s' }
FROM ?src OUT(?ind, ?val) { SELECT indicator, val FROM stats WHERE indicator = '%s' }`, region, indicator)
}

// pointLookup reads one politician's facts from the graph.
func pointLookup(id string) string {
	return fmt.Sprintf(`%sQUERY pt(?name, ?dept, ?pos)
GRAPH { pol:%s foaf:name ?name . pol:%s :electedIn ?dept . pol:%s :position ?pos }`, prefix, id, id, id)
}

// bgpJoin follows one politician across the graph: politician → party
// → current and European group, plus the department.
func bgpJoin(id string) string {
	return fmt.Sprintf(`%sQUERY bgp(?p, ?cur, ?grp, ?dept)
GRAPH { pol:%s :memberOf ?p . ?p :currentOf ?cur . ?p :epGroup ?grp . pol:%s :electedIn ?dept }`, prefix, id, id)
}

// bgpScan intersects three unselective patterns bound to constants: each
// matches thousands of politicians, so evaluation walks large index
// ranges.
func bgpScan(party, position, dept string) string {
	return fmt.Sprintf(`%sQUERY scan(?x, ?name)
GRAPH { ?x :memberOf pty:%s . ?x :position :%s . ?x :electedIn "%s" . ?x foaf:name ?name }`,
		prefix, party, position, dept)
}

// spillJoin is a residual chain of two graph atoms and two SQL scans.
// One position's politicians with their names make the largest
// relation (about 9,400 rows), so they become a build side, and at over
// 1 MiB they outgrow the join memory budget and spill.
func spillJoin(position, party string, year int) string {
	return fmt.Sprintf(`%sQUERY spill(?dept, ?taux, ?voix, COUNT(?x) AS ?n)
GRAPH { ?x :memberOf pty:%s . ?x :electedIn ?dept }
GRAPH { ?x :position :%s . ?x foaf:name ?name }
FROM <sql://insee> OUT(?dept, ?taux) { SELECT dept, taux FROM chomage WHERE annee = %d }
FROM <sql://insee> OUT(?dept, ?voix) { SELECT dept, voix FROM resultats WHERE parti = '%s' AND annee = %d }
GROUP BY ?dept, ?taux, ?voix
ORDER BY ?dept`, prefix, party, position, year, party, year)
}

// buildPool enumerates the workload's request population from the
// generated dataset. The per-deck counts are assumptions, not observed
// traffic; README.md gives the reason for each.
func buildPool(w *workload, ds *datagen.Dataset) *pool {
	rng := rand.New(rand.NewSource(dataSeed))
	p := &pool{}
	add := func(name string, perDeck int, variants []string) {
		sort.Strings(variants)
		rng.Shuffle(len(variants), func(i, j int) { variants[i], variants[j] = variants[j], variants[i] })
		p.families = append(p.families, family{name: name, perDeck: perDeck, variants: variants})
		p.reads += perDeck
	}
	defer func() {
		if w.mutations+p.reads != deckSize {
			panic(fmt.Sprintf("%s: a deck holds %d mutations and %d reads, not %d operations", w.name, w.mutations, p.reads, deckSize))
		}
	}()
	if w.durable {
		var pts, joins []string
		for i := 0; i < 1000; i++ {
			pol := ds.Politicians[rng.Intn(len(ds.Politicians))]
			pts = append(pts, pointLookup(pol.ID))
			joins = append(joins, bgpJoin(pol.ID))
		}
		add("point", 94, dedupe(pts))
		add("bgp_join", 74, dedupe(joins))
		var scans, spills []string
		for _, party := range partyIDs() {
			for _, pos := range positions {
				scans = append(scans, bgpScan(party, pos, deptCodes()[rng.Intn(len(datagen.Departments))]))
			}
			for _, pos := range []string{"deputy", "senator"} {
				spills = append(spills, spillJoin(pos, party, years[rng.Intn(len(years))]))
			}
		}
		add("bgp_scan", 1, scans)
		add("spill_join", 1, spills)
		return p
	}

	// Parameters come from what the data holds, so every request has at
	// least one row to check: an author with a tweet under the tag, a
	// speaker with a speech. Screen names can repeat across politicians,
	// so the sets are deduplicated.
	var rare []string
	for _, pol := range ds.Politicians {
		for _, tag := range rareTags {
			if tweeted(ds, pol.Twitter, tag) {
				rare = append(rare, qsiaRare(pol.Twitter, tag))
			}
		}
	}
	rare = dedupe(rare)
	rng.Shuffle(len(rare), func(i, j int) { rare[i], rare[j] = rare[j], rare[i] })
	add("qsia_rare", 60, rare[:min(len(rare), 600)])

	var common []string
	for _, pos := range positions {
		for _, tag := range commonTags {
			common = append(common, qsiaCommon(pos, tag, ""))
			for _, d := range deptCodes()[:3] {
				common = append(common, qsiaCommon(pos, tag, d))
			}
		}
	}
	add("qsia_common", 14, common)

	var facts []string
	for _, party := range partyIDs() {
		for _, pos := range positions {
			for _, tag := range allTags {
				for _, y := range years {
					facts = append(facts, factSources(party, pos, tag, y))
				}
			}
		}
	}
	add("fact_sources", 40, facts)

	speakers := map[string]bool{}
	ds.Speeches.Each(func(d *xmlstore.Document) bool {
		for _, sp := range d.Root.Children {
			speakers[sp.Attr("speaker")] = true
		}
		return true
	})
	var sp []string
	for _, pol := range ds.Politicians {
		if speakers[pol.Name] {
			sp = append(sp, speeches(pol.Twitter))
		}
	}
	add("speeches", 30, dedupe(sp))

	var agg []string
	for _, pos := range positions {
		for _, tag := range allTags {
			agg = append(agg, aggregatedHead(pos, tag))
		}
	}
	add("aggregated_head", 10, agg)

	var hj []string
	for _, pos := range positions {
		for _, party := range partyIDs() {
			for _, y := range years {
				for _, g := range []string{"female", "male"} {
					hj = append(hj, hashJoin(pos, g, party, y))
				}
			}
		}
	}
	add("hash_join", 30, hj)

	var dyn []string
	for _, r := range regionNames {
		for _, ind := range indicators {
			dyn = append(dyn, dynamicDiscovery(r, ind))
		}
	}
	add("dynamic_discovery", 16, dyn)
	return p
}

// tweeted reports whether the account has a tweet under the hashtag.
func tweeted(ds *datagen.Dataset, account, tag string) bool {
	hits, err := ds.Tweets.Search(fulltext.BoolQuery{Must: []fulltext.Query{
		fulltext.KeywordQuery{Field: "user.screen_name", Value: account},
		fulltext.KeywordQuery{Field: "entities.hashtags", Value: tag},
	}}, fulltext.SearchOptions{Limit: 1})
	return err == nil && len(hits) > 0
}

func dedupe(in []string) []string {
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Mutations touch entities in a namespace of their own that no read
// template matches, under a two-class hierarchy so each insert or
// delete still runs delta saturation (the subclass triple is inserted
// once at set-up).
const benchNS = "http://bench.example/"

func schemaDoc() string {
	return fmt.Sprintf("<%sReporter> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <%sJournalist> .\n", benchNS, benchNS)
}

func entityIRI(client, k int) string { return fmt.Sprintf("%se/c%d-%d", benchNS, client, k) }

// entityTriples is the size of one mutation: a reporter's fact sheet
// with its class, its beat and a handful of notes.
const entityTriples = 100

func entityDoc(client, k int) string {
	e := entityIRI(client, k)
	var b strings.Builder
	fmt.Fprintf(&b, "<%s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <%sReporter> .\n", e, benchNS)
	fmt.Fprintf(&b, "<%s> <%scovers> \"beat%d\" .\n", e, benchNS, k%7)
	for i := 2; i < entityTriples; i++ {
		fmt.Fprintf(&b, "<%s> <%snote> \"note %d of entity %d\" .\n", e, benchNS, i, k)
	}
	return b.String()
}

// readBack asks for the entity's derived class and its beat: one row
// after an insert, none after a delete.
func readBack(client, k int) string {
	e := entityIRI(client, k)
	return fmt.Sprintf(`QUERY rb(?b)
GRAPH { <%s> a <%sJournalist> . <%s> <%scovers> ?b }`, e, benchNS, e, benchNS)
}

func readBackRow(k int) string { return fmt.Sprintf(`[{"k":"string","v":"beat%d"}]`, k%7) }

// trimQuery is for log lines.
func trimQuery(q string) string {
	q = strings.Join(strings.Fields(q), " ")
	if len(q) > 120 {
		q = q[:120] + "…"
	}
	return q
}

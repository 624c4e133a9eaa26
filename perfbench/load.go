package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/obs"
	"tatooine/internal/server"
)

// op is the outcome of one closed-loop operation.
type op struct {
	mutate   bool
	family   string
	text     string
	ndjson   bool
	traced   bool
	late     bool // completed after the phase's deadline
	latency  time.Duration
	ttfr     time.Duration // NDJSON: time to the first row record (0 when no row)
	serverNs int64         // JSON: X-Tat-Server-Ns
	cached   bool
	stats    *core.ExecStats // executed (not cached) answers only
	rows     int
	trace    *obs.SpanData
	err      error
}

// jsonReply is POST /cmq's JSON reply with the rows kept raw for hashing.
type jsonReply struct {
	Rows   []json.RawMessage `json:"rows"`
	Stats  core.ExecStats    `json:"stats"`
	Cached bool              `json:"cached"`
	Trace  *obs.SpanData     `json:"trace"`
	Error  string            `json:"error"`
}

// streamLine is one NDJSON record of a streamed POST /cmq reply.
type streamLine struct {
	Cols   []string        `json:"cols"`
	Row    json.RawMessage `json:"row"`
	Stats  *core.ExecStats `json:"stats"`
	Cached *bool           `json:"cached"`
	Trace  *obs.SpanData   `json:"trace"`
	Error  string          `json:"error"`
}

// client is one closed-loop caller: it sends its next request only
// after the previous one returned.
type client struct {
	id     int
	rng    *rand.Rand
	hc     *http.Client
	base   string
	oracle map[string]string // request text → row-multiset hash
	w      *workload
	pool   *pool

	deck      []int // the rest of the current deck of operation kinds
	next      int   // next entity number for inserts
	live      []int // inserted entities not yet deleted
	lastEpoch uint64
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 3 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// step runs the client's next operation, drawn from its seeded stream.
func (c *client) step(traced bool) op {
	if len(c.deck) == 0 {
		c.deck = c.pool.deck(c.w.mutations, c.rng)
	}
	k := c.deck[0]
	c.deck = c.deck[1:]
	if k < 0 {
		return c.mutate()
	}
	f := c.pool.families[k]
	text := f.variants[c.rng.Intn(len(f.variants))]
	o := c.query(text, c.rng.Float64() < c.w.ndjsonShare, traced)
	o.family = f.name
	return o
}

// query sends one POST /cmq and checks the answer against the oracle.
func (c *client) query(text string, ndjson, traced bool) op {
	o := op{text: text, ndjson: ndjson, traced: traced}
	want, ok := c.oracle[text]
	if !ok {
		o.err = fmt.Errorf("no oracle answer for %s", trimQuery(text))
		return o
	}
	body, _ := json.Marshal(server.QueryRequest{Query: text, Trace: traced})
	req, _ := http.NewRequest(http.MethodPost, c.base+"/cmq", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	var h rowHash
	if ndjson {
		err = c.readStream(resp, start, &o, &h)
	} else {
		err = c.readJSON(resp, &o, &h)
	}
	o.latency = time.Since(start)
	if err == nil && h.String() != want {
		err = fmt.Errorf("wrong answer: rows hash %s, oracle %s", h, want)
	}
	o.rows = h.n
	if err != nil {
		o.err = fmt.Errorf("%s: %w", trimQuery(text), err)
	}
	return o
}

func (c *client) readJSON(resp *http.Response, o *op, h *rowHash) error {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	o.serverNs, _ = strconv.ParseInt(resp.Header.Get(obs.ServerTimeHeader), 10, 64)
	var rep jsonReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("status %d, bad JSON: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || rep.Error != "" {
		return fmt.Errorf("status %d, error %q", resp.StatusCode, rep.Error)
	}
	for _, row := range rep.Rows {
		h.add(row)
	}
	o.cached = rep.Cached
	if !rep.Cached {
		o.stats = &rep.Stats
	}
	o.trace = rep.Trace
	return nil
}

func (c *client) readStream(resp *http.Response, start time.Time, o *op, h *rowHash) error {
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	header, trailer := false, false
	for sc.Scan() {
		var rec streamLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("bad NDJSON record: %w", err)
		}
		switch {
		case trailer:
			return fmt.Errorf("record after the trailer")
		case rec.Error != "":
			return fmt.Errorf("error record %q", rec.Error)
		case rec.Row != nil:
			if !header {
				return fmt.Errorf("row before the header")
			}
			if h.n == 0 {
				o.ttfr = time.Since(start)
			}
			h.add(rec.Row)
		case rec.Stats != nil:
			trailer = true
			o.cached = rec.Cached != nil && *rec.Cached
			if !o.cached {
				o.stats = rec.Stats
			}
			o.trace = rec.Trace
		case rec.Cols != nil:
			header = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !trailer {
		return fmt.Errorf("stream ended without a trailer")
	}
	return nil
}

// mutate inserts a fresh entity or deletes one this client inserted
// earlier, then reads it back. The mutation must change exactly the
// entity's triples and advance the epoch past any the client saw.
func (c *client) mutate() op {
	o := op{mutate: true, family: "mutate"}
	remove := len(c.live) > 0 && (len(c.live) >= 4 || c.rng.Intn(2) == 0)
	var k int
	method := http.MethodPost
	if remove {
		k, c.live = c.live[0], c.live[1:]
		method = http.MethodDelete
	} else {
		k = c.next
		c.next++
	}
	body, _ := json.Marshal(server.GraphRequest{Triples: entityDoc(c.id, k)})
	req, _ := http.NewRequest(method, c.base+"/graph", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	var gr server.GraphResponse
	err = json.NewDecoder(resp.Body).Decode(&gr)
	resp.Body.Close()
	o.latency = time.Since(start)
	switch {
	case err != nil:
		o.err = fmt.Errorf("%s /graph: %w", method, err)
	case resp.StatusCode != http.StatusOK || gr.Error != "":
		o.err = fmt.Errorf("%s /graph: status %d, error %q", method, resp.StatusCode, gr.Error)
	case gr.Changed != entityTriples:
		o.err = fmt.Errorf("%s /graph: changed %d triples, want %d", method, gr.Changed, entityTriples)
	case gr.Epoch <= c.lastEpoch:
		o.err = fmt.Errorf("%s /graph: epoch %d did not advance past %d", method, gr.Epoch, c.lastEpoch)
	}
	if o.err != nil {
		return o
	}
	c.lastEpoch = gr.Epoch
	if !remove {
		c.live = append(c.live, k)
	}
	o.err = c.readBack(k, remove)
	return o
}

func (c *client) readBack(k int, removed bool) error {
	body, _ := json.Marshal(server.QueryRequest{Query: readBack(c.id, k)})
	resp, err := c.hc.Post(c.base+"/cmq", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rep jsonReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("read-back: %w", err)
	}
	if resp.StatusCode != http.StatusOK || rep.Error != "" {
		return fmt.Errorf("read-back: status %d, error %q", resp.StatusCode, rep.Error)
	}
	want := 1
	if removed {
		want = 0
	}
	if len(rep.Rows) != want || (want == 1 && string(rep.Rows[0]) != readBackRow(k)) {
		return fmt.Errorf("read-back of entity %d after mutation: rows %s", k, rep.Rows)
	}
	return nil
}

// phase is one timed stretch of the closed loop.
type phase struct {
	traced bool
	d      time.Duration
	ops    []op
}

// throughput counts the operations completed within the phase.
func (ph phase) throughput() (ops int, perSecond float64) {
	for _, o := range ph.ops {
		if !o.late {
			ops++
		}
	}
	return ops, float64(ops) / ph.d.Seconds()
}

// loop runs every client in a closed loop for d and returns the
// operations. Each client finishes (and checks) the request it has in
// flight at the deadline; that one is marked late.
func loop(clients []*client, d time.Duration, traced bool) phase {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	ph := phase{traced: traced, d: d}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var mine []op
			for time.Now().Before(deadline) {
				o := c.step(traced)
				o.late = time.Now().After(deadline)
				mine = append(mine, o)
			}
			mu.Lock()
			ph.ops = append(ph.ops, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return ph
}

// mutateAll has every client send mutations in a closed loop for d.
func mutateAll(clients []*client, d time.Duration) []op {
	var mu sync.Mutex
	var ops []op
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var mine []op
			for end := time.Now().Add(d); time.Now().Before(end); {
				mine = append(mine, c.mutate())
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return ops
}

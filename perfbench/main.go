// Command perfbench is the repository's end-to-end benchmark. One run
// generates a workload's data from a seed, serves it from the tatooine
// binary in a process of its own, drives that mediator over HTTP with a
// closed loop of clients, checks every answer against an in-process
// oracle, and prints the run's metrics as one JSON object on the last
// line of standard output:
//
//	perfbench run -bin .bench_build/bin/tatooine -work .bench_build \
//	    --workload newsroom --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones a user sees; with
// --trace 1 the same seeded traffic is replayed with span trees
// requested and the metrics are the per-layer breakdown. README.md in
// this directory describes the workloads and metrics; run.sh builds
// both binaries and starts a run.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/datagen"
	"tatooine/internal/federation"
	"tatooine/internal/pager"
	"tatooine/internal/rdf"
	"tatooine/internal/server"
	"tatooine/internal/store"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "remote" {
		if err := runRemote(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench remote:", err)
			os.Exit(1)
		}
		return
	}
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "run" {
		args = args[1:]
	}
	onSignal()
	os.Exit(runMain(args))
}

// result is the JSON object printed on the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "newsroom", "workload: newsroom, federated or archive-live")
	seed := fs.Int64("seed", 1, "workload seed: the traffic drawn from the request pool")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	bin := fs.String("bin", ".bench_build/bin/tatooine", "tatooine binary")
	work := fs.String("work", ".bench_build", "directory for run output")
	src := fs.String("src", "perfbench", "benchmark source directory (golden answers)")
	writeGolden := fs.Bool("write-golden", false, "store the oracle's answers as the golden set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &runner{start: time.Now(), w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, bin: *bin, self: self,
		work: *work, src: *src, clients: runtime.NumCPU(), writeGolden: *writeGolden}
	r.runDir, err = filepath.Abs(filepath.Join(*work, "runs",
		fmt.Sprintf("%s-s%d-t%d-%d", w.name, r.seed, *trace, time.Now().UnixNano())))
	if err == nil {
		err = os.MkdirAll(r.runDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.tmpDir = filepath.Join(r.runDir, "tmp")
	r.dataDir = filepath.Join(r.runDir, "data")
	os.MkdirAll(r.tmpDir, 0o755)
	defer os.RemoveAll(r.dataDir)
	defer os.RemoveAll(r.tmpDir)

	res, err := r.execute()
	killAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d FAILED: %v\n", w.name, r.seed, err)
		return 1
	}
	r.report(res)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d of %d operations FAILED or answered wrongly; see above\n",
			w.name, r.seed, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runner holds one run's configuration and state.
type runner struct {
	w           *workload
	seed        int64
	seconds     int
	traced      bool
	bin, self   string
	work, src   string
	clients     int
	writeGolden bool

	start                   time.Time
	runDir, tmpDir, dataDir string
	remoteBase              string

	ds     *datagen.Dataset
	pool   *pool
	oracle map[string]string

	attempted, failed int
	record            map[string]any
}

// logf prints a progress line with the time since the run started.
func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %s [%5.1fs] %s\n", r.w.name, time.Since(r.start).Seconds(), fmt.Sprintf(format, args...))
}

// fail records a failed or wrong operation; the first few are printed.
func (r *runner) fail(err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: WRONG OR FAILED: %v\n", err)
	}
}

func (r *runner) count(ops []op) {
	for _, o := range ops {
		r.attempted++
		if o.err != nil {
			r.fail(o.err)
		}
	}
}

func (r *runner) execOptions() core.ExecOptions {
	// The options `tatooine serve` runs queries with by default.
	return core.ExecOptions{Parallel: true, Tuner: core.NewBatchTuner(),
		JoinMemBudget: int64(r.w.joinBudgetMB) << 20}
}

func (r *runner) execute() (*result, error) {
	w := r.w
	var err error
	if r.ds, err = datagen.Generate(w.config()); err != nil {
		return nil, err
	}
	r.pool = buildPool(w, r.ds)
	r.record = map[string]any{
		"workload": w.name, "seed": r.seed, "data_seed": dataSeed, "seconds": r.seconds, "traced": r.traced,
		"clients": r.clients, "politicians": w.politicians, "tweets": w.tweets,
		"graph_triples": r.ds.Graph.Size(), "distinct_requests": len(r.pool.distinct()),
		"mix": r.pool.mix(w.mutations), "ndjson_share": w.ndjsonShare,
		"remote_delay_ms": 0, "page_cache_mb": w.pageCacheMB, "join_mem_budget_mb": w.joinBudgetMB,
	}

	// The durable workload starts from a seeded data directory, made once
	// per build of the mediator while the oracle is computed.
	seeded := make(chan error, 1)
	if w.durable {
		go func() { seeded <- r.seedDataDir() }()
	} else {
		seeded <- nil
	}
	var remote *proc
	if w.federated {
		if remote, r.remoteBase, err = r.startRemote(); err != nil {
			return nil, err
		}
		defer remote.stop(time.Minute)
		r.record["remote_delay_ms"] = remoteDelayMs
	}

	ref, err := r.ds.Instance(core.WithSaturation())
	if err != nil {
		return nil, err
	}
	texts := append(r.pool.distinct(), w.coldQuery)
	if r.oracle, err = computeOracle(ref, texts, core.ExecOptions{Parallel: true}, 2); err != nil {
		return nil, err
	}
	r.logf("oracle: %d distinct requests answered in-process", len(texts))
	if err := checkGolden(r.src, w, r.oracle, r.writeGolden); err != nil {
		return nil, err
	}
	// An empty answer could only be checked as "no rows": the pool is
	// built so that none is.
	for _, text := range texts {
		if strings.HasPrefix(r.oracle[text], "0:") {
			return nil, fmt.Errorf("pooled request answers no rows: %s", trimQuery(text))
		}
	}
	// User bytes: the graph's triples in N-Triples form.
	var userBytes int64
	for _, t := range r.ds.Graph.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}) {
		userBytes += int64(len(t.String()) + len(" .\n"))
	}
	r.record["user_bytes"] = userBytes
	if !r.traced {
		// The load generator shares the CPUs with the mediator: drop the
		// in-process dataset and reference instance, which only a traced
		// run uses again, so the collector has little to scan during the
		// loop.
		r.ds, ref = nil, nil
		runtime.GC()
		debug.FreeOSMemory()
	}
	if err := <-seeded; err != nil {
		return nil, fmt.Errorf("seeding the data directory: %w", err)
	}
	if w.durable {
		r.logf("data directory seeded")
	}

	// Set-up: start the mediator several times; each start is timed to
	// ready and answers the cold query. The last one serves the load.
	hc := newHTTPClient(r.clients)
	var setups, colds samples
	var m *mediator
	for i := 0; i < setupRounds; i++ {
		var d time.Duration
		if m, d, err = r.startMediator(r.dataDir); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		c := r.newClient(0, hc, m.base)
		o := c.query(w.coldQuery, false, false)
		r.count([]op{o})
		colds = append(colds, ms(o.latency))
		if i < setupRounds-1 {
			if err := m.p.stop(5 * time.Minute); err != nil {
				return nil, err
			}
		}
	}
	defer m.p.stop(time.Minute)
	r.logf("set-up: %v s to ready, cold query %v ms", setups, colds)
	if w.mutations > 0 {
		if err := postSchema(hc, m.base); err != nil {
			return nil, err
		}
	}

	// The start-up peak (reopening the store, generating the in-memory
	// instance) follows GC timing: on archive-live it read 290-470 MB
	// from seed to seed, while serving stays under 100 MB. It is kept in
	// the record; peak_rss_mb is taken from the measured loop alone.
	pid := m.p.cmd.Process.Pid
	if r.record["startup_peak_rss_mb"], err = statusMB(pid, "VmHWM"); err != nil {
		return nil, err
	}
	clients := make([]*client, r.clients)
	for i := range clients {
		clients[i] = r.newClient(i+1, hc, m.base)
	}
	r.count(loop(clients, time.Second, false).ops) // warm-up

	out := metrics{}
	var phases []phase
	var deltas *layerDeltas
	var rss samples
	if r.traced {
		phases, deltas, err = r.tracedLoop(clients, m)
		if err != nil {
			return nil, err
		}
	} else {
		steal0 := cpuSteal()
		stop := make(chan struct{})
		peaks := make(chan error, 1)
		go func() {
			var err error
			rss, err = secondPeaks(pid, stop)
			peaks <- err
		}()
		phases = []phase{loop(clients, time.Duration(r.seconds)*time.Second, false)}
		close(stop)
		if err := <-peaks; err != nil {
			return nil, fmt.Errorf("reading the mediator's peak RSS: %w", err)
		}
		// Time the host took the CPUs away: the main source of run-to-run
		// spread on a shared machine, kept for reading the spread.
		r.record["cpu_steal_frac"] = cpuSteal().minus(steal0)
	}
	for _, ph := range phases {
		r.count(ph.ops)
	}
	r.logf("closed loop done")

	// Mutation latency is measured after the loop, with every client
	// mutating, on every workload: the in-memory ones are read-only in
	// the loop, and on archive-live the loop's mutations wait on the
	// long scans and spills beside them, which makes their latency track
	// that mix more than the commit path.
	if w.mutations == 0 {
		if err := postSchema(hc, m.base); err != nil {
			return nil, err
		}
	}
	probes := mutateAll(clients, mutationTime)
	r.count(probes)

	final, err := fetchStats(m.base)
	if err != nil {
		return nil, err
	}
	if err := m.p.stop(5 * time.Minute); err != nil {
		return nil, err
	}
	r.logf("mediator stopped")
	var diskBytes int64
	if w.durable {
		if diskBytes, err = dirBytes(r.dataDir); err != nil {
			return nil, err
		}
	}
	if !r.traced {
		if err := r.endToEnd(out, phases[0], probes, setups, colds, rss); err != nil {
			return nil, err
		}
		if w.durable {
			r.record["disk_bytes_per_user_byte"] = ratio(float64(diskBytes), float64(userBytes))
		}
	} else {
		var in *core.Instance
		if w.durable {
			in, _, err = r.ds.PersistentInstance(r.dataDir, core.WithSaturation(),
				core.WithStoreOptions(store.Options{Pager: pager.Options{CacheSize: (w.pageCacheMB << 20) / pager.PageSize}}))
			if err != nil {
				return nil, err
			}
			defer in.Close()
		} else {
			in = ref
			if w.federated {
				if err := swapRemote(in, r.remoteBase); err != nil {
					return nil, err
				}
			}
		}
		r.layers(out, phases, deltas, in)
		out.set("disk_bytes_per_user_byte", ratio(float64(diskBytes), float64(userBytes)), "ratio", 1)
		live := 0.0
		if final.Store != nil {
			live = float64(final.Store.LiveBytes)
		}
		out.set("store.file_bytes_per_live_byte", ratio(float64(diskBytes), live), "ratio", 1)
	}
	r.record["metrics"] = out
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: out}, nil
}

func (r *runner) newClient(id int, hc *http.Client, base string) *client {
	return &client{id: id, rng: rand.New(rand.NewSource(r.seed*1009 + int64(id))), hc: hc, base: base,
		oracle: r.oracle, w: r.w, pool: r.pool}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// endToEnd fills the user-visible metrics of an untraced run.
func (r *runner) endToEnd(out metrics, ph phase, probes []op, setups, colds, rss samples) error {
	var queries, ttfr, mutates samples
	for _, o := range ph.ops {
		switch {
		case o.err != nil, o.mutate:
		default:
			queries = append(queries, ms(o.latency))
			if o.ndjson && o.ttfr > 0 {
				ttfr = append(ttfr, ms(o.ttfr))
			}
		}
	}
	for _, o := range probes {
		if o.err == nil {
			mutates = append(mutates, ms(o.latency))
		}
	}
	r.familyLatencies(ph.ops)
	n, thr := ph.throughput()
	out.set("throughput_ops_s", thr, "1/s", n)
	for _, e := range []error{
		out.setPct("query_p50_ms", queries, 0.50, "ms"),
		out.setPct("query_p99_ms", queries, 0.99, "ms"),
		out.setPct("ttfr_p50_ms", ttfr, 0.50, "ms"),
		out.setPct("mutate_p50_ms", mutates, 0.50, "ms"),
		out.setPct("mutate_p90_ms", mutates, 0.90, "ms"),
	} {
		if e != nil {
			return e
		}
	}
	out.set("cold_query_ms", colds.median(), "ms", len(colds))
	out.set("setup_s", setups.median(), "s", len(setups))
	if len(rss) == 0 {
		return fmt.Errorf("peak_rss_mb: no whole second measured")
	}
	out.set("peak_rss_mb", rss.median(), "MB", len(rss))
	return nil
}

// familyLatencies records each request family's count and median
// latency in the run record.
func (r *runner) familyLatencies(ops []op) {
	by := map[string]samples{}
	for _, o := range ops {
		if o.err == nil {
			by[o.family] = append(by[o.family], ms(o.latency))
		}
	}
	fam := map[string]any{}
	for f, s := range by {
		p90, _ := s.pct(0.9)
		fam[f] = map[string]float64{"n": float64(len(s)), "p50_ms": s.median(), "p90_ms": p90}
		r.logf("family %-18s n=%-6d p50 %.3f ms  p90 %.3f ms", f, len(s), s.median(), p90)
	}
	r.record["families"] = fam
}

// report prints the human summary and writes the run record.
func (r *runner) report(res *result) {
	r.record["attempted"], r.record["failed"], r.record["correct"] = res.Attempted, res.Failed, res.Correct
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench %s seed %d (%d clients, %ds, trace=%v): %d ops attempted, %d failed\n",
		r.w.name, r.seed, r.clients, r.seconds, r.traced, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(&b, "  %-36s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.n)
	}
	if v, ok := r.record["disk_bytes_per_user_byte"]; ok {
		fmt.Fprintf(&b, "  %-36s %14.4f\n", "disk_bytes_per_user_byte", v)
	}
	fmt.Fprintf(&b, "  run output: %s\n", r.runDir)
	fmt.Fprint(os.Stderr, b.String())
	data, _ := json.MarshalIndent(r.record, "", " ")
	os.WriteFile(filepath.Join(r.runDir, "record.json"), data, 0o644)
}

// seedDataDir copies the seeded data directory of this mediator build
// into the run's directory, seeding it first if no earlier run did: the
// mediator loads the dataset into a fresh directory and answers one
// query, so G∞ is stored as in a directory that has served before.
func (r *runner) seedDataDir() error {
	f, err := os.Open(r.bin)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	pristine, err := filepath.Abs(filepath.Join(r.work, fmt.Sprintf("seeded-%s-%x", r.w.name, h.Sum(nil)[:8])))
	if err != nil {
		return err
	}
	done := pristine + ".complete"
	if _, err := os.Stat(done); err != nil {
		os.RemoveAll(pristine)
		m, _, err := r.startMediator(pristine)
		if err != nil {
			return err
		}
		err = materialize(m.base, r.w.coldQuery)
		if serr := m.p.stop(5 * time.Minute); err == nil {
			err = serr
		}
		if err == nil {
			err = os.WriteFile(done, nil, 0o644)
		}
		if err != nil {
			return err
		}
		r.logf("seeded %s", pristine)
	}
	return copyDir(pristine, r.dataDir)
}

func materialize(base, query string) error {
	body, _ := json.Marshal(server.QueryRequest{Query: query})
	resp, err := http.Post(base+"/cmq", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("seeding query: status %d", resp.StatusCode)
	}
	return nil
}

func postSchema(hc *http.Client, base string) error {
	body, _ := json.Marshal(server.GraphRequest{Triples: schemaDoc()})
	resp, err := hc.Post(base+"/graph", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /graph schema: status %d", resp.StatusCode)
	}
	return nil
}

// swapRemote replaces the in-process instance's tweets and INSEE sources
// with federation clients of the remote process, as the mediator has.
func swapRemote(in *core.Instance, base string) error {
	for _, s := range []struct{ uri, path string }{{datagen.TweetsURI, "/tweets"}, {datagen.INSEEURI, "/insee"}} {
		in.DropSource(s.uri)
		c, err := federation.Dial(base + s.path)
		if err != nil {
			return err
		}
		if err := in.AddSource(c); err != nil {
			return err
		}
	}
	return nil
}

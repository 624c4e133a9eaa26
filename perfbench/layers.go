package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tatooine/internal/core"
	"tatooine/internal/digest"
	"tatooine/internal/obs"
	"tatooine/internal/rdf"
	"tatooine/internal/server"
)

// snapshot is the counters the mediator (and the remote wrapper)
// export at one instant.
type snapshot struct {
	stats   server.Stats
	metrics map[string]float64
	remote  remoteStats
}

func fetchStats(base string) (server.Stats, error) {
	var st server.Stats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// fetchMetrics parses GET /metrics (Prometheus text) into sample name
// (with labels) → value.
func fetchMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func fetchRemote(base string, from int) (remoteStats, error) {
	var st remoteStats
	resp, err := http.Get(fmt.Sprintf("%s/bench/counters?from=%d", base, from))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (r *runner) snap(m *mediator) (snapshot, error) {
	var s snapshot
	var err error
	if s.stats, err = fetchStats(m.base); err != nil {
		return s, err
	}
	if s.metrics, err = fetchMetrics(m.base); err != nil {
		return s, err
	}
	if r.remoteBase != "" {
		if s.remote, err = fetchRemote(r.remoteBase, 1<<30); err != nil {
			return s, err
		}
	}
	return s, nil
}

// layerDeltas accumulates counter deltas over the traced slices.
type layerDeltas struct {
	requests, hits, subQueries, batchProbes, prunedProbes float64
	digestFetches, fullRecomputes, mutations              float64
	pagerHits, pagerMisses, evictions, commits            float64
	spilledBytes, probeHits, probeMisses                  float64
	remoteRequests, remoteBytes                           float64
	remoteNs                                              samples
	fsync                                                 map[float64]float64 // bucket bound → count
}

func (d *layerDeltas) add(a, b snapshot, remoteNs []int64) {
	sa, sb := a.stats, b.stats
	d.requests += float64(sb.Requests - sa.Requests)
	d.hits += float64(sb.CacheHits - sa.CacheHits)
	d.subQueries += float64(sb.SubQueries - sa.SubQueries)
	d.batchProbes += float64(sb.BatchProbes - sa.BatchProbes)
	d.prunedProbes += float64(sb.Digest.PrunedProbes - sa.Digest.PrunedProbes)
	d.digestFetches += float64(sb.Digest.Fetches - sa.Digest.Fetches)
	d.fullRecomputes += float64(sb.Saturation.FullRecomputes - sa.Saturation.FullRecomputes)
	d.mutations += float64(sb.Mutations - sa.Mutations)
	d.spilledBytes += float64(sb.Memory.SpilledBytes - sa.Memory.SpilledBytes)
	if sa.Store != nil && sb.Store != nil {
		d.pagerHits += float64(sb.Store.CacheHits - sa.Store.CacheHits)
		d.pagerMisses += float64(sb.Store.CacheMisses - sa.Store.CacheMisses)
		d.evictions += float64(sb.Store.Evictions - sa.Store.Evictions)
		d.commits += float64(sb.Store.Commits - sa.Store.Commits)
	}
	d.probeHits += b.metrics["tat_probe_cache_hits_total"] - a.metrics["tat_probe_cache_hits_total"]
	d.probeMisses += b.metrics["tat_probe_cache_misses_total"] - a.metrics["tat_probe_cache_misses_total"]
	d.remoteRequests += float64(b.remote.Requests - a.remote.Requests)
	d.remoteBytes += float64(b.remote.Bytes - a.remote.Bytes)
	for _, ns := range remoteNs {
		d.remoteNs = append(d.remoteNs, float64(ns)/1e6)
	}
	if d.fsync == nil {
		d.fsync = map[float64]float64{}
	}
	const pfx = `tat_wal_fsync_seconds_bucket{le="`
	for k, v := range b.metrics {
		if strings.HasPrefix(k, pfx) {
			le := strings.TrimSuffix(strings.TrimPrefix(k, pfx), `"}`)
			bound, err := strconv.ParseFloat(le, 64)
			if le == "+Inf" {
				bound, err = 1e9, nil
			}
			if err == nil {
				d.fsync[bound] += v - a.metrics[k]
			}
		}
	}
}

// fsyncP50Ms interpolates the median fsync time from the cumulative
// histogram deltas.
func (d *layerDeltas) fsyncP50Ms() float64 {
	var bounds []float64
	for b := range d.fsync {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || d.fsync[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	half := d.fsync[bounds[len(bounds)-1]] / 2
	lo, below := 0.0, 0.0
	for _, b := range bounds {
		c := d.fsync[b]
		if c >= half {
			hi := b
			if hi >= 1e9 {
				hi = lo
			}
			return 1000 * (lo + (hi-lo)*ratio(half-below, c-below))
		}
		lo, below = b, c
	}
	return 0
}

// tracedLoop alternates one-second untraced and traced slices (so both
// see the same cache warmth), snapshotting the exported counters around
// every traced slice. It checks parity: every request executed in both
// kinds of slice must return the same rows and the same ExecStats
// counts.
func (r *runner) tracedLoop(clients []*client, m *mediator) ([]phase, *layerDeltas, error) {
	slices := max(2, r.seconds)
	per := time.Duration(r.seconds) * time.Second / time.Duration(slices)
	d := &layerDeltas{}
	var phases []phase
	for i := 0; i < slices; i++ {
		traced := i%2 == 1
		if !traced {
			phases = append(phases, loop(clients, per, false))
			continue
		}
		before, err := r.snap(m)
		if err != nil {
			return nil, nil, err
		}
		ph := loop(clients, per, true)
		after, err := r.snap(m)
		if err != nil {
			return nil, nil, err
		}
		var ns []int64
		if r.remoteBase != "" {
			rs, err := fetchRemote(r.remoteBase, before.remote.Samples)
			if err != nil {
				return nil, nil, err
			}
			ns = rs.HandlerNs
		}
		d.add(before, after, ns)
		phases = append(phases, ph)
	}
	compared, mismatch := parity(phases)
	r.record["parity_requests_compared"] = compared
	if mismatch != "" {
		r.fail(fmt.Errorf("traced/untraced parity: %s", mismatch))
	}
	return phases, d, nil
}

type parityStats struct{ sub, batch, pruned, fetched, spilled int }

func statsKey(s *core.ExecStats) parityStats {
	return parityStats{s.SubQueries, s.BatchProbes, s.PrunedProbes, s.RowsFetched, s.SpilledJoins}
}

// parity compares, per request text, the counts of its first executed
// answer in an untraced slice with those in a traced slice. (Rows are
// already checked against the oracle on every answer.)
func parity(phases []phase) (compared int, mismatch string) {
	first := [2]map[string]parityStats{{}, {}}
	for _, ph := range phases {
		k := 0
		if ph.traced {
			k = 1
		}
		for _, o := range ph.ops {
			if o.err != nil || o.stats == nil || o.mutate {
				continue
			}
			if _, ok := first[k][o.text]; !ok {
				first[k][o.text] = statsKey(o.stats)
			}
		}
	}
	bad := 0
	example := ""
	for text, u := range first[0] {
		t, ok := first[1][text]
		if !ok {
			continue
		}
		compared++
		if t != u {
			bad++
			example = fmt.Sprintf("%s: untraced %+v, traced %+v", trimQuery(text), u, t)
		}
	}
	if bad > 0 {
		return compared, fmt.Sprintf("%d of %d requests differ, e.g. %s", bad, compared, example)
	}
	return compared, ""
}

// spanWalk visits every span of a tree.
func spanWalk(d *obs.SpanData, f func(*obs.SpanData)) {
	if d == nil {
		return
	}
	f(d)
	for _, c := range d.Children {
		spanWalk(c, f)
	}
}

// childUnionNs is the wall time covered by the named children of a span
// (children overlap when nodes run in parallel).
func childUnionNs(d *obs.SpanData, names ...string) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range d.Children {
		for _, n := range names {
			if c.Name == n {
				ivs = append(ivs, iv{c.StartUnixNs, c.StartUnixNs + c.DurationNs})
			}
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, x := range ivs {
		if x.a > end {
			end = x.a
		}
		if x.b > end {
			total += x.b - end
			end = x.b
		}
	}
	return total
}

// layers fills the per-layer metrics of a traced run: span trees and
// headers of the traced answers, counter deltas over the traced slices,
// and timed public calls on an in-process instance.
func (r *runner) layers(out metrics, phases []phase, d *layerDeltas, in *core.Instance) {
	var handler, latency, joinSelf, fulltext, sql, xpath, graphNode, wire samples
	var execNs, attributed, e2e, rowsFetched, rows, pruned, probeTuples float64
	var opsU, opsT int
	var tU, tT time.Duration
	for _, ph := range phases {
		n, _ := ph.throughput()
		if !ph.traced {
			opsU += n
			tU += ph.d
			continue
		}
		opsT += n
		tT += ph.d
		for _, o := range ph.ops {
			if o.err != nil || o.mutate {
				continue
			}
			if !o.ndjson {
				handler = append(handler, float64(o.serverNs)/1e6)
				latency = append(latency, ms(o.latency))
				e2e += float64(o.latency.Nanoseconds())
				attributed += float64(o.latency.Nanoseconds() - o.serverNs)
			}
			if o.stats != nil {
				rowsFetched += float64(o.stats.RowsFetched)
				rows += float64(o.rows)
				pruned += float64(o.stats.PrunedProbes)
			}
			t := o.trace
			if t == nil {
				continue
			}
			if !o.ndjson {
				attributed += float64(t.DurationNs)
			}
			execNs += float64(t.DurationNs)
			joinSelf = append(joinSelf, float64(t.DurationNs-childUnionNs(t, "plan", "node"))/1e6)
			spanWalk(t, func(s *obs.SpanData) {
				dur := float64(s.DurationNs) / 1e6
				switch {
				case s.Name == "scan" || s.Name == "probe" || s.Name == "probe-batch":
					switch src := s.Attrs["source"]; {
					case strings.HasPrefix(src, "solr://"):
						fulltext = append(fulltext, dur)
					case strings.HasPrefix(src, "sql://"):
						sql = append(sql, dur)
					case strings.HasPrefix(src, "xml://"):
						xpath = append(xpath, dur)
					}
					if s.Name == "probe" {
						probeTuples++
					} else if s.Name == "probe-batch" {
						n, _ := strconv.Atoi(s.Attrs["tuples"])
						probeTuples += float64(n)
					}
				case s.Name == "node" && s.Attrs["target"] == "G":
					graphNode = append(graphNode, dur)
				case strings.HasPrefix(s.Name, "remote ") && s.Attrs["wireNs"] != "":
					n, _ := strconv.ParseFloat(s.Attrs["wireNs"], 64)
					wire = append(wire, n/1e6)
				}
			})
		}
	}
	q := d.requests
	out.setLayerPct("server.handler_ms_p50", handler, 0.5, "ms")
	hp, _ := handler.pct(0.5)
	lp, _ := latency.pct(0.5)
	out.set("server.overhead_ms_p50", lp-hp, "ms", len(latency))
	out.set("server.result_cache_hit_ratio", ratio(d.hits, q), "ratio", int(q))
	out.setLayerPct("core.join_finish_self_ms_p50", joinSelf, 0.5, "ms")
	out.set("core.rows_fetched_per_row", ratio(rowsFetched, rows), "ratio", int(rows))
	out.setLayerPct("source.fulltext.exec_ms_p50", fulltext, 0.5, "ms")
	out.setLayerPct("source.sql.exec_ms_p50", sql, 0.5, "ms")
	out.setLayerPct("source.xpath.exec_ms_p50", xpath, 0.5, "ms")
	out.setLayerPct("rdf.graph_node_ms_p50", graphNode, 0.5, "ms")
	out.set("source.probe_cache_hit_ratio", ratio(d.probeHits, d.probeHits+d.probeMisses), "ratio", int(d.probeHits+d.probeMisses))
	out.set("digest.fetches_per_query", ratio(d.digestFetches, q), "count", int(q))
	out.set("core.subqueries_per_query", ratio(d.subQueries, q), "count", int(q))
	out.set("core.batch_probes_per_query", ratio(d.batchProbes, q), "count", int(q))
	out.set("core.pruned_probe_ratio", ratio(pruned, pruned+probeTuples), "ratio", int(pruned+probeTuples))
	out.set("federation.requests_per_query", ratio(d.remoteRequests, q), "count", int(q))
	out.set("federation.bytes_per_query", ratio(d.remoteBytes, q), "B", int(q))
	out.setLayerPct("federation.remote_ms_p50", d.remoteNs, 0.5, "ms")
	out.setLayerPct("federation.wire_ms_p50", wire, 0.5, "ms")
	out.set("reason.full_recomputes", d.fullRecomputes, "count", 1)
	out.set("pager.cache_hit_ratio", ratio(d.pagerHits, d.pagerHits+d.pagerMisses), "ratio", int(d.pagerHits+d.pagerMisses))
	out.set("pager.misses_per_query", ratio(d.pagerMisses, q), "count", int(q))
	out.set("pager.evictions_per_query", ratio(d.evictions, q), "count", int(q))
	out.set("pager.commits_per_mutation", ratio(d.commits, d.mutations), "count", int(d.mutations))
	out.set("pager.fsync_ms_p50", d.fsyncP50Ms(), "ms", int(d.fsync[1e9]))
	out.set("core.spilled_bytes_per_query", ratio(d.spilledBytes, q), "B", int(q))
	thrU := ratio(float64(opsU), tU.Seconds())
	thrT := ratio(float64(opsT), tT.Seconds())
	out.set("bench.trace_overhead_frac", 1-ratio(thrT, thrU), "ratio", opsT)
	out.set("bench.unattributed_frac", 1-ratio(attributed, e2e), "ratio", len(latency))
	r.record["traced_exec_ms_total"] = execNs / 1e6
	r.publicCalls(out, in)
}

// publicCalls times the program's public entry points in-process on a
// sample of the workload's seeded requests: ParseCMQ, ExplainQuery,
// ExecuteContext (with allocation counts), encoding the response,
// ExecuteStream to its first batch, digest.ForSource per source, and
// AddTriples / RemoveTriples. Answers are checked against the oracle.
func (r *runner) publicCalls(out metrics, in *core.Instance) {
	opts := r.execOptions()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed*7919 + 3))
	deadline := time.Now().Add(time.Duration(r.seconds) * time.Second / 2)
	var parse, plan, exec, encode, first samples
	var allocs, allocBytes float64
	for i := 0; i < 400 && (i < 40 || time.Now().Before(deadline)); i++ {
		_, text := r.pool.draw(rng)
		r.attempted++
		t0 := time.Now()
		q, _, err := core.ParseCMQ(text)
		parse = append(parse, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			r.fail(fmt.Errorf("ParseCMQ %s: %w", trimQuery(text), err))
			continue
		}
		t0 = time.Now()
		_, err = in.ExplainQuery(q, opts)
		plan = append(plan, ms(time.Since(t0)))
		if err != nil {
			r.fail(fmt.Errorf("ExplainQuery %s: %w", trimQuery(text), err))
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 = time.Now()
		res, err := in.ExecuteContext(ctx, q, opts)
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		exec = append(exec, ms(el))
		allocs += float64(m1.Mallocs - m0.Mallocs)
		allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		if err != nil {
			r.fail(fmt.Errorf("ExecuteContext %s: %w", trimQuery(text), err))
			continue
		}
		if h, err := hashRows(res.Rows); err != nil || h != r.oracle[text] {
			r.fail(fmt.Errorf("ExecuteContext %s: rows hash %s (%v), oracle %s", trimQuery(text), h, err, r.oracle[text]))
		}
		t0 = time.Now()
		json.NewEncoder(io.Discard).Encode(server.QueryResponse{Cols: res.Cols, Rows: res.Rows, Stats: res.Stats})
		encode = append(encode, ms(time.Since(t0)))
		t0 = time.Now()
		sr, err := in.ExecuteStream(ctx, q, opts)
		if err == nil {
			b, berr := sr.NextBatch()
			first = append(first, ms(time.Since(t0)))
			for berr == nil && len(b) > 0 {
				b, berr = sr.NextBatch()
			}
			sr.Close()
			err = berr
		}
		if err != nil {
			r.fail(fmt.Errorf("ExecuteStream %s: %w", trimQuery(text), err))
		}
	}
	n := float64(len(exec))
	out.setLayerPct("core.parse_us_p50", parse, 0.5, "us")
	out.setLayerPct("core.plan_ms_p50", plan, 0.5, "ms")
	out.setLayerPct("core.execute_ms_p50", exec, 0.5, "ms")
	out.setLayerPct("core.first_batch_ms_p50", first, 0.5, "ms")
	out.setLayerPct("server.encode_ms_p50", encode, 0.5, "ms")
	out.set("core.allocs_per_query", ratio(allocs, n), "count", len(exec))
	out.set("core.alloc_bytes_per_query", ratio(allocBytes, n), "B", len(exec))

	var build float64
	for _, s := range in.Sources().All() {
		t0 := time.Now()
		if _, err := digest.ForSource(s, digest.DefaultBudget()); err != nil {
			r.fail(fmt.Errorf("digest.ForSource %s: %w", s.URI(), err))
		}
		build += ms(time.Since(t0))
	}
	out.set("digest.build_ms", build, "ms", len(in.Sources().All()))

	// Mutations last: they change the instance the calls above read.
	var mutate, apply samples
	var walBytes, userBytes float64
	for i := 0; i < 64; i++ {
		doc := entityDoc(0, i)
		ts, err := rdf.ParseString(doc)
		if err != nil {
			r.fail(err)
			break
		}
		for _, remove := range []bool{false, true} {
			r.attempted++
			before := in.StoreStats()
			t0 := time.Now()
			var changed int
			if remove {
				changed = in.RemoveTriples(ts)
			} else {
				changed = in.AddTriples(ts)
			}
			mutate = append(mutate, ms(time.Since(t0)))
			apply = append(apply, ms(in.SaturationStats().LastApply))
			if changed != len(ts) {
				r.fail(fmt.Errorf("public-call mutation changed %d triples, want %d", changed, len(ts)))
			}
			if after := in.StoreStats(); before != nil && after != nil && after.WALBytes >= before.WALBytes {
				walBytes += float64(after.WALBytes - before.WALBytes)
				userBytes += float64(len(doc))
			}
		}
	}
	if err := in.StoreErr(); err != nil {
		r.fail(err)
	}
	out.setLayerPct("core.mutate_ms_p50", mutate, 0.5, "ms")
	out.setLayerPct("reason.apply_ms_p50", apply, 0.5, "ms")
	out.set("pager.wal_bytes_per_user_byte", ratio(walBytes, userBytes), "ratio", len(mutate))
}

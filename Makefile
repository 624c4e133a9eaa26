GO ?= go
BENCHTIME ?= 1x

.PHONY: verify build test vet race bench benchsmoke boundedsmoke fmtcheck obscheck fuzzsmoke

# Tier-1 gate: a missing-module (or any build/test) regression fails here.
verify: fmtcheck vet build test benchsmoke boundedsmoke obscheck fuzzsmoke

# Bounded-memory smoke: seed an on-disk instance ~4x the 16 MiB
# page-cache budget and serve point lookups plus a spilling federated
# join. The benchmark asserts the resident-page gauge stays at or under
# the cap, the join spills, and GC-settled heap growth across the
# serving phase stays within 1.5x the budget — an OOM or an unbounded
# cache fails verify here.
boundedsmoke:
	$(GO) test -run '^$$' -bench '^BenchmarkBoundedMemory$$' -benchtime 1x ./

# Fuzz smoke: run each fuzz target a few seconds past its checked-in
# seed corpus, so an input that panics the SEARCH parser, query builder
# and evaluator, panics the BGP parser or evaluator, or breaks the bloom
# filter's no-false-negative property, fails verify. A failing input
# lands under testdata/fuzz.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseTextQuery$$' -fuzztime 5s ./internal/fulltext/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBGP$$' -fuzztime 5s ./internal/rdf/
	$(GO) test -run '^$$' -fuzz '^FuzzBloomMayContain$$' -fuzztime 5s ./internal/digest/

# Observability hygiene: no printf logging outside cmd/, and a booted
# mediator's GET /metrics must scrape as valid Prometheus text.
obscheck:
	sh scripts/obs_vet.sh

# Fail on any file gofmt would rewrite (prints the offenders).
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Record the perf trajectory: run the experiment benchmarks (root
# package, E1–E12 + serve/saturation/bind-join/pipelined) with
# allocation counts, including the storage-engine pair WarmBoot /
# PointLookupDisk and the memory pair BoundedMemory (max-RSS +
# resident-page cap alongside ns/op) / WarmBootAllocs (startup
# allocations vs term count), and write the results as test2json events
# to BENCH_10.json, so numbers are diffable across PRs. Raise BENCHTIME
# (e.g. BENCHTIME=2s) for stabler timings.
bench:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -benchmem -json ./ > BENCH_10.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_10.json | sed 's/"Output":"//;s/\\t/ /g;s/\\n//' || true

# Compile and run every benchmark exactly once (no timing): a benchmark
# that stops building or panics fails verify instead of rotting silently.
# -benchmem surfaces allocation counts in CI logs, so an allocation
# regression in the reasoner (or any hot path) is visible at review.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

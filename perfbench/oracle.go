package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"tatooine/internal/core"
	"tatooine/internal/value"
)

// rowHash is an order-independent hash of a row multiset: the count and
// the wrapping sum of a mixed 64-bit hash of each row's JSON encoding.
type rowHash struct {
	n   int
	sum uint64
}

func (h *rowHash) add(raw []byte) {
	f := fnv.New64a()
	f.Write(raw)
	x := f.Sum64()
	// splitmix64 finalizer: spreads FNV's low-entropy bits before summing.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	h.n++
	h.sum += x
}

func (h rowHash) String() string { return fmt.Sprintf("%d:%016x", h.n, h.sum) }

// queryKey names a request text compactly (golden files, parity maps).
func queryKey(text string) string {
	s := sha256.Sum256([]byte(text))
	return hex.EncodeToString(s[:8])
}

// computeOracle executes every distinct request in-process on a plain
// instance (no result cache, no probe cache) and records the row
// multiset hash of each answer. An execution error fails the run: the
// workloads are chosen so that no request fails.
func computeOracle(in *core.Instance, texts []string, opts core.ExecOptions, workers int) (map[string]string, error) {
	out := make(map[string]string, len(texts))
	var mu sync.Mutex
	var firstErr error
	next := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for text := range next {
				a, err := evaluate(in, text, opts)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle: %s: %w", trimQuery(text), err)
				}
				out[text] = a
				mu.Unlock()
			}
		}()
	}
	for _, t := range texts {
		next <- t
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

func evaluate(in *core.Instance, text string, opts core.ExecOptions) (string, error) {
	q, _, err := core.ParseCMQ(text)
	if err != nil {
		return "", err
	}
	res, err := in.ExecuteContext(context.Background(), q, opts)
	if err != nil {
		return "", err
	}
	return hashRows(res.Rows)
}

// hashRows hashes rows as the server encodes them.
func hashRows(rows []value.Row) (string, error) {
	var h rowHash
	for _, row := range rows {
		raw, err := json.Marshal(row)
		if err != nil {
			return "", err
		}
		h.add(raw)
	}
	return h.String(), nil
}

// golden is the stored oracle: request key → row multiset hash. A
// change in any answer shows up as a mismatch here.
type golden struct {
	Workload string            `json:"workload"`
	DataSeed int64             `json:"dataSeed"`
	Hashes   map[string]string `json:"hashes"`
}

func goldenPath(dir, workload string) string {
	return filepath.Join(dir, "golden", workload+".json")
}

// checkGolden compares the oracle against the stored hashes, or writes
// them when write is set.
func checkGolden(dir string, w *workload, oracle map[string]string, write bool) error {
	g := golden{Workload: w.name, DataSeed: dataSeed, Hashes: map[string]string{}}
	for text, h := range oracle {
		g.Hashes[queryKey(text)] = h
	}
	path := goldenPath(dir, w.name)
	if write {
		data, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden answers: %w", err)
	}
	var want golden
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("golden answers %s: %w", path, err)
	}
	var bad []string
	for k, h := range g.Hashes {
		if want.Hashes[k] != h {
			bad = append(bad, fmt.Sprintf("%s: got %s, golden %q", k, h, want.Hashes[k]))
		}
	}
	if len(want.Hashes) != len(g.Hashes) {
		bad = append(bad, fmt.Sprintf("%d requests, golden has %d", len(g.Hashes), len(want.Hashes)))
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("answers differ from %s (%d mismatches), first: %s", path, len(bad), bad[0])
	}
	return nil
}

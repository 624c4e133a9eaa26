package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tatooine/internal/pager"
)

// checkShape walks the whole tree and fails if a non-root leaf is empty,
// if a page is reachable twice or from the free list, or if a page is
// neither reachable nor free (the tree owns every page of its pager but
// the header).
func checkShape(t *testing.T, bt *BTree) {
	t.Helper()
	seen := make(map[pager.PageID]bool)
	var walk func(id pager.PageID)
	walk = func(id pager.PageID) {
		if seen[id] {
			t.Fatalf("page %d reachable twice", id)
		}
		seen[id] = true
		p, err := bt.pg.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if pageType(p) == typeLeaf {
			if nCells(p) == 0 && id != bt.root {
				t.Fatalf("empty non-root leaf %d is reachable", id)
			}
			return
		}
		var children []pager.PageID
		for i := 0; i <= nCells(p); i++ {
			children = append(children, interiorChild(p, i))
		}
		for _, c := range children {
			walk(c)
		}
	}
	walk(bt.root)
	free, err := bt.pg.FreePages()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range free {
		if seen[id] {
			t.Fatalf("page %d is both in the tree and on the free list", id)
		}
	}
	pages, err := bt.Pages()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(pages)+len(free), bt.pg.PageCount()-1; got != want {
		t.Fatalf("%d tree pages + %d free pages, want %d allocated", len(pages), len(free), want)
	}
}

// checkModel compares a full scan, point lookups and random seeks with
// the map model.
func checkModel(t *testing.T, bt *BTree, ref map[string]string, rng *rand.Rand) {
	t.Helper()
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c := bt.NewCursor()
	i := 0
	for c.Seek(nil); c.Valid(); c.Next() {
		if i >= len(keys) {
			t.Fatalf("cursor yields more than %d keys", len(keys))
		}
		if got := string(c.Key()); got != keys[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, got, keys[i])
		}
		if got := string(c.Value()); got != ref[keys[i]] {
			t.Fatalf("scan[%d] value of %d bytes, want %d", i, len(got), len(ref[keys[i]]))
		}
		i++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("cursor yields %d keys, want %d", i, len(keys))
	}
	for n := 0; n < 50; n++ {
		probe := fmt.Sprintf("k%05d", rng.Intn(5000))
		c.Seek([]byte(probe))
		j := sort.SearchStrings(keys, probe)
		if j == len(keys) {
			if c.Valid() {
				t.Fatalf("Seek(%q) at %q, want end", probe, c.Key())
			}
			continue
		}
		if !c.Valid() || string(c.Key()) != keys[j] {
			t.Fatalf("Seek(%q) valid=%v key=%q, want %q", probe, c.Valid(), c.Key(), keys[j])
		}
	}
}

// TestDeleteUnlinksEmptiedPages drives the tree with random inserts,
// point deletes and range deletes (which empty whole leaves and
// interior nodes) and checks it against a map after every phase: same
// keys in the same order, no empty leaf reachable but the root, and
// every page either in the tree or on the free list.
func TestDeleteUnlinksEmptiedPages(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			bt := memTree(t)
			rng := rand.New(rand.NewSource(seed))
			ref := make(map[string]string)
			value := func() string {
				n := 8 + rng.Intn(200)
				if rng.Intn(40) == 0 {
					n = 3000 + rng.Intn(6000) // overflow chain
				}
				return string(bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, n))
			}
			del := func(k string) {
				deleted, err := bt.Delete([]byte(k))
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := ref[k]; deleted != ok {
					t.Fatalf("Delete(%q) = %v, model has it: %v", k, deleted, ok)
				}
				delete(ref, k)
			}
			for phase := 0; phase < 12; phase++ {
				for i := 0; i < 1500; i++ {
					k := fmt.Sprintf("k%05d", rng.Intn(5000))
					switch rng.Intn(4) {
					case 0:
						del(k)
					default:
						v := value()
						if _, err := bt.Insert([]byte(k), []byte(v)); err != nil {
							t.Fatal(err)
						}
						ref[k] = v
					}
				}
				// Delete a contiguous range: whole leaves go.
				lo := rng.Intn(5000)
				for k := lo; k < lo+rng.Intn(2500); k++ {
					del(fmt.Sprintf("k%05d", k))
				}
				checkShape(t, bt)
				checkModel(t, bt, ref, rng)
			}
			// Empty the tree: the root stays, as an empty leaf.
			for k := range ref {
				del(k)
			}
			checkShape(t, bt)
			checkModel(t, bt, ref, rng)
			p, err := bt.pg.View(bt.root)
			if err != nil {
				t.Fatal(err)
			}
			if pageType(p) != typeLeaf || nCells(p) != 0 {
				t.Fatalf("emptied root: type %d with %d cells, want an empty leaf", pageType(p), nCells(p))
			}
			if _, err := bt.Insert([]byte("again"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			checkModel(t, bt, map[string]string{"again": "v"}, rng)
		})
	}
}

// TestSeekIntoDeletedRangeReadsOnePath pins the cost that unlinking
// buys: a seek into the middle of a large deleted range reads one
// root-to-leaf path and lands on the first key after the range, instead
// of walking every leaf the deletes emptied.
func TestSeekIntoDeletedRangeReadsOnePath(t *testing.T) {
	bt := memTree(t)
	val := bytes.Repeat([]byte("v"), 100)
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
	for i := 0; i < 20000; i++ {
		if _, err := bt.Insert(key(i), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5000; i < 15000; i++ {
		if _, err := bt.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	depth := 0
	for id := bt.root; ; depth++ {
		p, err := bt.pg.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if pageType(p) == typeLeaf {
			break
		}
		id = interiorChild(p, 0)
	}
	if depth < 2 {
		t.Fatalf("tree depth %d: too shallow to exercise interior unlinking", depth)
	}
	reads := func() int64 {
		st := bt.pg.Stats()
		return st.CacheHits + st.CacheMisses
	}
	c := bt.NewCursor()
	before := reads()
	c.Seek(key(10000))
	if n := reads() - before; n > int64(depth+1) {
		t.Errorf("Seek into the deleted range read %d pages, want at most depth+1 = %d", n, depth+1)
	}
	if !c.Valid() || !bytes.Equal(c.Key(), key(15000)) {
		t.Fatalf("Seek landed on %q (valid %v), want %q", c.Key(), c.Valid(), key(15000))
	}
}

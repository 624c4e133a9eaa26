// Package btree implements an order-N B-tree over pager pages: the
// index layer of TATOOINE's storage engine, modeled on the SQLite
// B-tree page format (PAPERS.md: abk171/gosqlite,
// khandu-utkarsh/codecrafters-sqlite-go) but writable.
//
// Each tree maps variable-length byte keys to variable-length values in
// sorted order. Pages are slotted: a header, an array of 2-byte cell
// offsets sorted by key, and cell content growing down from the page
// end. Leaf cells hold the key plus an inline value prefix (long values
// spill into an overflow page chain); interior cells hold a router key
// and a child pointer, with keys <= router in the child and a rightmost
// pointer for the rest. The root page never moves: a root split pushes
// both halves into fresh pages and rewrites the root in place, so a
// tree is durably identified by one PageID.
//
// Deletes do not merge or rebalance: an underfull page stays in the
// tree, which trades bounded space slack for simplicity and suits the
// mediator's append-mostly workloads. A page a delete empties is
// unlinked and freed, though, so seeks and scans never walk empty
// leaves (files written before that change may still hold some, and
// cursors skip them).
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"tatooine/internal/pager"
)

const (
	typeLeaf     = 1
	typeInterior = 2

	hdrSize = 9 // type(1) + nCells(2) + cellStart(2) + rightChild(4)

	// MaxKey bounds key length so that any page can hold at least two
	// cells; the store layer clamps longer keys before they reach here.
	MaxKey = 1024

	// maxLeafCell bounds one leaf cell (header + key + inline value);
	// values that would exceed it continue in overflow pages.
	maxLeafCell = 1900

	leafCellHdr     = 10 // klen(2) + inlineLen(4) + overflow(4)
	interiorCellHdr = 6  // klen(2) + child(4)

	// Overflow page: next(4) + len(2) + data.
	ovflHdr  = 6
	ovflData = pager.PageSize - ovflHdr
)

// BTree is one tree within a pager. It is NOT internally synchronized:
// callers (the store layer) serialize writers per tree and exclude
// writers during reads.
type BTree struct {
	pg   *pager.Pager
	root pager.PageID
	// live is the payload the tree currently holds: the sum of
	// len(key)+len(value) over every live entry, maintained across
	// inserts, replacements and deletes. Dead space (removed cells,
	// page slack) is NOT counted, so pages-used×PageSize versus live is
	// the store's vacuum signal. The store catalog persists it per
	// keyspace and restores it through SetLiveBytes on reopen.
	live int64
}

// New allocates an empty tree and returns it; the root PageID is stable
// for the tree's lifetime (persist it to reopen the tree later).
func New(pg *pager.Pager) (*BTree, error) {
	id, page, err := pg.Allocate()
	if err != nil {
		return nil, err
	}
	initPage(page, typeLeaf)
	return &BTree{pg: pg, root: id}, nil
}

// Open returns the tree rooted at root.
func Open(pg *pager.Pager, root pager.PageID) *BTree {
	return &BTree{pg: pg, root: root}
}

// Root returns the tree's root page.
func (t *BTree) Root() pager.PageID { return t.root }

// LiveBytes returns the summed key+value payload of the live entries.
func (t *BTree) LiveBytes() int64 { return t.live }

// SetLiveBytes restores the live-byte counter of a reopened tree (the
// store catalog persists it alongside the root and count).
func (t *BTree) SetLiveBytes(n int64) { t.live = n }

func initPage(p []byte, typ byte) {
	for i := range p[:hdrSize] {
		p[i] = 0
	}
	p[0] = typ
	binary.BigEndian.PutUint16(p[3:], pager.PageSize)
}

// --- page accessors -------------------------------------------------

func pageType(p []byte) byte { return p[0] }
func nCells(p []byte) int    { return int(binary.BigEndian.Uint16(p[1:])) }
func cellStart(p []byte) int { return int(binary.BigEndian.Uint16(p[3:])) }
func rightChild(p []byte) pager.PageID {
	return pager.PageID(binary.BigEndian.Uint32(p[5:]))
}
func setNCells(p []byte, n int)    { binary.BigEndian.PutUint16(p[1:], uint16(n)) }
func setCellStart(p []byte, o int) { binary.BigEndian.PutUint16(p[3:], uint16(o)) }
func setRightChild(p []byte, c pager.PageID) {
	binary.BigEndian.PutUint32(p[5:], uint32(c))
}

func slotOff(p []byte, i int) int {
	return int(binary.BigEndian.Uint16(p[hdrSize+2*i:]))
}
func setSlotOff(p []byte, i, off int) {
	binary.BigEndian.PutUint16(p[hdrSize+2*i:], uint16(off))
}

func cellKey(p []byte, i int) []byte {
	off := slotOff(p, i)
	klen := int(binary.BigEndian.Uint16(p[off:]))
	if pageType(p) == typeLeaf {
		return p[off+leafCellHdr : off+leafCellHdr+klen]
	}
	return p[off+interiorCellHdr : off+interiorCellHdr+klen]
}

// leafCellValue returns the inline value bytes and the overflow chain
// head (0 if none).
func leafCellValue(p []byte, i int) ([]byte, pager.PageID) {
	off := slotOff(p, i)
	klen := int(binary.BigEndian.Uint16(p[off:]))
	ilen := int(binary.BigEndian.Uint32(p[off+2:]))
	ovfl := pager.PageID(binary.BigEndian.Uint32(p[off+6:]))
	start := off + leafCellHdr + klen
	return p[start : start+ilen], ovfl
}

func interiorChild(p []byte, i int) pager.PageID {
	if i >= nCells(p) {
		return rightChild(p)
	}
	off := slotOff(p, i)
	return pager.PageID(binary.BigEndian.Uint32(p[off+2:]))
}

func setInteriorChild(p []byte, i int, c pager.PageID) {
	if i >= nCells(p) {
		setRightChild(p, c)
		return
	}
	off := slotOff(p, i)
	binary.BigEndian.PutUint32(p[off+2:], uint32(c))
}

func cellSize(p []byte, i int) int {
	off := slotOff(p, i)
	klen := int(binary.BigEndian.Uint16(p[off:]))
	if pageType(p) == typeLeaf {
		ilen := int(binary.BigEndian.Uint32(p[off+2:]))
		return leafCellHdr + klen + ilen
	}
	return interiorCellHdr + klen
}

// search returns the index of the first cell whose key is >= key, and
// whether an exact match was found there.
func search(p []byte, key []byte) (int, bool) {
	lo, hi := 0, nCells(p)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(cellKey(p, mid), key) {
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	exact := lo < nCells(p) && bytes.Equal(cellKey(p, lo), key)
	return lo, exact
}

// insertCell places raw cell bytes at slot i, compacting first when
// dead space from deletes or replacements fragments the page. Returns
// false if the page is full even after compaction.
func insertCell(p []byte, i int, cell []byte) bool {
	n := nCells(p)
	if cellStart(p) < hdrSize+2*(n+1)+len(cell) {
		live := 0
		for j := 0; j < n; j++ {
			live += cellSize(p, j)
		}
		if hdrSize+2*(n+1)+live+len(cell) > pager.PageSize {
			return false
		}
		compact(p)
	}
	off := cellStart(p) - len(cell)
	copy(p[off:], cell)
	n = nCells(p)
	copy(p[hdrSize+2*(i+1):hdrSize+2*(n+1)], p[hdrSize+2*i:hdrSize+2*n])
	setSlotOff(p, i, off)
	setNCells(p, n+1)
	setCellStart(p, off)
	return true
}

// removeCell drops slot i; the cell content becomes dead space
// reclaimed by the next compact.
func removeCell(p []byte, i int) {
	n := nCells(p)
	copy(p[hdrSize+2*i:hdrSize+2*(n-1)], p[hdrSize+2*(i+1):hdrSize+2*n])
	setNCells(p, n-1)
	if n-1 == 0 {
		setCellStart(p, pager.PageSize)
	}
}

// compact rewrites all cells tightly against the page end.
func compact(p []byte) {
	n := nCells(p)
	var scratch [pager.PageSize]byte
	end := pager.PageSize
	offs := make([]int, n)
	for i := 0; i < n; i++ {
		sz := cellSize(p, i)
		end -= sz
		copy(scratch[end:], p[slotOff(p, i):slotOff(p, i)+sz])
		offs[i] = end
	}
	copy(p[end:], scratch[end:])
	for i, off := range offs {
		setSlotOff(p, i, off)
	}
	setCellStart(p, end)
}

// --- public operations ----------------------------------------------

// Get returns the value for key.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	id := t.root
	for {
		p, err := t.pg.View(id)
		if err != nil {
			return nil, false, err
		}
		i, exact := search(p, key)
		if pageType(p) == typeLeaf {
			if !exact {
				return nil, false, nil
			}
			return t.materialize(p, i)
		}
		id = interiorChild(p, i)
	}
}

// materialize copies the full value of leaf cell i, following any
// overflow chain.
func (t *BTree) materialize(p []byte, i int) ([]byte, bool, error) {
	inline, ovfl := leafCellValue(p, i)
	out := make([]byte, len(inline))
	copy(out, inline)
	for ovfl != 0 {
		op, err := t.pg.View(ovfl)
		if err != nil {
			return nil, false, err
		}
		next := pager.PageID(binary.BigEndian.Uint32(op[0:]))
		l := int(binary.BigEndian.Uint16(op[4:]))
		out = append(out, op[ovflHdr:ovflHdr+l]...)
		ovfl = next
	}
	return out, true, nil
}

// Insert sets key to value, replacing any existing value. It reports
// whether the key was new.
func (t *BTree) Insert(key, value []byte) (bool, error) {
	if len(key) == 0 || len(key) > MaxKey {
		return false, fmt.Errorf("btree: key length %d out of range [1,%d]", len(key), MaxKey)
	}
	fresh, split, err := t.insertInto(t.root, key, value)
	if err != nil {
		return false, err
	}
	if split != nil {
		if err := t.splitRoot(split); err != nil {
			return false, err
		}
	}
	return fresh, nil
}

// splitResult describes a child split to be absorbed by the parent:
// the child (which kept its PageID) now holds keys <= sep, and right
// holds the rest.
type splitResult struct {
	sep   []byte
	right pager.PageID
}

// splitRoot absorbs a split of the root itself: the root currently
// holds the left half (splitPage splits in place). Move that half into
// a fresh page and rewrite the root as a two-child interior node, so
// the root PageID stays stable for the tree's whole lifetime.
func (t *BTree) splitRoot(split *splitResult) error {
	rootPage, err := t.pg.Mut(t.root)
	if err != nil {
		return err
	}
	leftID, leftPage, err := t.pg.Allocate()
	if err != nil {
		return err
	}
	copy(leftPage, rootPage)
	// Re-fetch: Allocate may have grown structures, and Mut buffers are
	// stable per transaction, but be explicit.
	rootPage, err = t.pg.Mut(t.root)
	if err != nil {
		return err
	}
	initPage(rootPage, typeInterior)
	cell := make([]byte, interiorCellHdr+len(split.sep))
	binary.BigEndian.PutUint16(cell[0:], uint16(len(split.sep)))
	binary.BigEndian.PutUint32(cell[2:], uint32(leftID))
	copy(cell[interiorCellHdr:], split.sep)
	insertCell(rootPage, 0, cell)
	setRightChild(rootPage, split.right)
	return nil
}

// insertInto inserts into the subtree rooted at id. If the page had to
// split, the page keeps the left half and the returned splitResult
// carries the separator and the new right page.
func (t *BTree) insertInto(id pager.PageID, key, value []byte) (fresh bool, split *splitResult, err error) {
	view, err := t.pg.View(id)
	if err != nil {
		return false, nil, err
	}
	if pageType(view) == typeLeaf {
		return t.insertLeaf(id, key, value)
	}
	i, _ := search(view, key)
	child := interiorChild(view, i)
	fresh, childSplit, err := t.insertInto(child, key, value)
	if err != nil || childSplit == nil {
		return fresh, nil, err
	}
	// Absorb the child's split: new router cell (sep -> child), and the
	// slot that pointed at child now covers the right half.
	p, err := t.pg.Mut(id)
	if err != nil {
		return false, nil, err
	}
	i, _ = search(p, childSplit.sep)
	cell := make([]byte, interiorCellHdr+len(childSplit.sep))
	binary.BigEndian.PutUint16(cell[0:], uint16(len(childSplit.sep)))
	binary.BigEndian.PutUint32(cell[2:], uint32(child))
	copy(cell[interiorCellHdr:], childSplit.sep)
	if insertCell(p, i, cell) {
		setInteriorChild(p, i+1, childSplit.right)
		return fresh, nil, nil
	}
	// Parent is full: split it, then retry the router insert into the
	// correct half.
	sep, rightID, err := t.splitPage(id)
	if err != nil {
		return false, nil, err
	}
	target := id
	if bytes.Compare(childSplit.sep, sep) > 0 {
		target = rightID
	}
	p, err = t.pg.Mut(target)
	if err != nil {
		return false, nil, err
	}
	i, _ = search(p, childSplit.sep)
	if !insertCell(p, i, cell) {
		return false, nil, fmt.Errorf("btree: router insert failed after split")
	}
	setInteriorChild(p, i+1, childSplit.right)
	return fresh, &splitResult{sep: sep, right: rightID}, nil
}

func (t *BTree) insertLeaf(id pager.PageID, key, value []byte) (bool, *splitResult, error) {
	p, err := t.pg.Mut(id)
	if err != nil {
		return false, nil, err
	}
	i, exact := search(p, key)
	if exact {
		// Replace: account and drop the old cell, returning its
		// overflow chain to the pager's free list, then insert anew.
		old, err := t.dropLeafCell(p, i)
		if err != nil {
			return false, nil, err
		}
		t.live -= int64(len(key)) + old
	}
	cell, err := t.buildLeafCell(key, value)
	if err != nil {
		return false, nil, err
	}
	t.live += int64(len(key) + len(value))
	if insertCell(p, i, cell) {
		return !exact, nil, nil
	}
	split, err := t.splitLeafInsert(id, i, cell)
	if err != nil {
		return false, nil, err
	}
	return !exact, split, nil
}

// splitLeafInsert splits leaf id while placing the pending cell at
// slot position pos, choosing the split point over the combined cell
// sequence (existing cells plus the pending one) that best balances
// bytes between the halves. Splitting first and retrying the insert —
// the old approach — could strand a near-maxLeafCell cell against a
// half that the byte-blind split left too full; because maxLeafCell
// keeps every cell under half a page's usable space, the combined
// sequence always has a split point where both halves fit.
func (t *BTree) splitLeafInsert(id pager.PageID, pos int, cell []byte) (*splitResult, error) {
	p, err := t.pg.Mut(id)
	if err != nil {
		return nil, err
	}
	n := nCells(p)
	if n == 0 {
		return nil, fmt.Errorf("btree: cell of %d bytes cannot fit a page", len(cell))
	}
	// Virtual sequence: index pos is the pending cell, the rest are the
	// existing cells shifted around it. vsize includes the 2-byte slot.
	vsize := func(j int) int {
		switch {
		case j == pos:
			return len(cell) + 2
		case j < pos:
			return cellSize(p, j) + 2
		default:
			return cellSize(p, j-1) + 2
		}
	}
	total := 0
	for j := 0; j <= n; j++ {
		total += vsize(j)
	}
	// Split point s: left keeps virtual [0,s), right takes [s,n+1).
	// Minimize the larger half.
	best, bestCost, acc := 1, int(^uint(0)>>1), 0
	for s := 1; s <= n; s++ {
		acc += vsize(s - 1)
		cost := acc
		if r := total - acc; r > cost {
			cost = r
		}
		if cost < bestCost {
			best, bestCost = s, cost
		}
	}
	s := best
	rightID, rightPage, err := t.pg.Allocate()
	if err != nil {
		return nil, err
	}
	p, err = t.pg.Mut(id)
	if err != nil {
		return nil, err
	}
	initPage(rightPage, typeLeaf)
	for j := s; j <= n; j++ {
		src := cell
		if j != pos {
			oi := j
			if j > pos {
				oi = j - 1
			}
			off := slotOff(p, oi)
			src = p[off : off+cellSize(p, oi)]
		}
		if !insertCell(rightPage, nCells(rightPage), src) {
			return nil, fmt.Errorf("btree: split right overflow")
		}
	}
	// Trim the moved cells off the left, then place the pending cell if
	// it belongs there.
	firstMoved := s
	if pos < s {
		firstMoved = s - 1
	}
	for i := n - 1; i >= firstMoved; i-- {
		removeCell(p, i)
	}
	if pos < s {
		if !insertCell(p, pos, cell) {
			return nil, fmt.Errorf("btree: split left overflow")
		}
	}
	sep := append([]byte(nil), cellKey(p, nCells(p)-1)...)
	return &splitResult{sep: sep, right: rightID}, nil
}

// dropLeafCell removes leaf cell i, frees its overflow chain, and
// returns the full value length the cell held.
func (t *BTree) dropLeafCell(p []byte, i int) (int64, error) {
	inline, ovfl := leafCellValue(p, i)
	size := int64(len(inline))
	removeCell(p, i)
	if ovfl != 0 {
		n, err := t.freeOverflow(ovfl)
		if err != nil {
			return 0, err
		}
		size += n
	}
	return size, nil
}

// freeOverflow walks an overflow chain, returning every page to the
// pager's free list, and reports the chained value bytes freed.
func (t *BTree) freeOverflow(ovfl pager.PageID) (int64, error) {
	var freed int64
	for ovfl != 0 {
		op, err := t.pg.View(ovfl)
		if err != nil {
			return freed, err
		}
		next := pager.PageID(binary.BigEndian.Uint32(op[0:]))
		freed += int64(binary.BigEndian.Uint16(op[4:]))
		if err := t.pg.Free(ovfl); err != nil {
			return freed, err
		}
		ovfl = next
	}
	return freed, nil
}

// buildLeafCell encodes a leaf cell, spilling long values to overflow
// pages.
func (t *BTree) buildLeafCell(key, value []byte) ([]byte, error) {
	inline := value
	var ovfl pager.PageID
	if leafCellHdr+len(key)+len(value) > maxLeafCell {
		cut := maxLeafCell - leafCellHdr - len(key)
		if cut < 0 {
			cut = 0
		}
		inline = value[:cut]
		rest := value[cut:]
		// Build the chain back-to-front so each page knows its next.
		var next pager.PageID
		chunks := (len(rest) + ovflData - 1) / ovflData
		for c := chunks - 1; c >= 0; c-- {
			lo := c * ovflData
			hi := lo + ovflData
			if hi > len(rest) {
				hi = len(rest)
			}
			id, page, err := t.pg.Allocate()
			if err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint32(page[0:], uint32(next))
			binary.BigEndian.PutUint16(page[4:], uint16(hi-lo))
			copy(page[ovflHdr:], rest[lo:hi])
			next = id
		}
		ovfl = next
	}
	cell := make([]byte, leafCellHdr+len(key)+len(inline))
	binary.BigEndian.PutUint16(cell[0:], uint16(len(key)))
	binary.BigEndian.PutUint32(cell[2:], uint32(len(inline)))
	binary.BigEndian.PutUint32(cell[6:], uint32(ovfl))
	copy(cell[leafCellHdr:], key)
	copy(cell[leafCellHdr+len(key):], inline)
	return cell, nil
}

// splitPage moves the upper half of page id's cells into a fresh page
// and returns the separator (max key retained on the left) and the new
// right page. For interior pages the right page inherits the old
// rightChild and the left page's rightChild becomes the child of the
// cell just past the split point (whose router key becomes the
// separator and is removed — standard B-tree promotion).
func (t *BTree) splitPage(id pager.PageID) ([]byte, pager.PageID, error) {
	p, err := t.pg.Mut(id)
	if err != nil {
		return nil, 0, err
	}
	n := nCells(p)
	if n < 2 {
		return nil, 0, fmt.Errorf("btree: cannot split page with %d cells", n)
	}
	// Find the split point by accumulated cell size.
	total := 0
	for i := 0; i < n; i++ {
		total += cellSize(p, i) + 2
	}
	mid, acc := 0, 0
	for mid = 0; mid < n-1; mid++ {
		acc += cellSize(p, mid) + 2
		if acc >= total/2 {
			break
		}
	}
	if mid == 0 {
		mid = 1
	}
	rightID, rightPage, err := t.pg.Allocate()
	if err != nil {
		return nil, 0, err
	}
	// Allocate may have touched page 0; re-fetch our Mut buffer (same
	// transaction, still dirty, pointer is stable — but be explicit).
	p, err = t.pg.Mut(id)
	if err != nil {
		return nil, 0, err
	}
	typ := pageType(p)
	initPage(rightPage, typ)

	var sep []byte
	if typ == typeLeaf {
		sep = append([]byte(nil), cellKey(p, mid-1)...)
		for i := mid; i < n; i++ {
			off := slotOff(p, i)
			sz := cellSize(p, i)
			if !insertCell(rightPage, nCells(rightPage), p[off:off+sz]) {
				return nil, 0, fmt.Errorf("btree: split right overflow")
			}
		}
		for i := n - 1; i >= mid; i-- {
			removeCell(p, i)
		}
	} else {
		// Promote the key at mid: left keeps cells [0,mid), its
		// rightChild becomes cell mid's child; right takes (mid, n) and
		// the old rightChild.
		sep = append([]byte(nil), cellKey(p, mid)...)
		promotedChild := interiorChild(p, mid)
		for i := mid + 1; i < n; i++ {
			off := slotOff(p, i)
			sz := cellSize(p, i)
			if !insertCell(rightPage, nCells(rightPage), p[off:off+sz]) {
				return nil, 0, fmt.Errorf("btree: split right overflow")
			}
		}
		setRightChild(rightPage, rightChild(p))
		for i := n - 1; i >= mid; i-- {
			removeCell(p, i)
		}
		setRightChild(p, promotedChild)
	}
	compact(p)
	return sep, rightID, nil
}

// Delete removes key, reporting whether it was present. The value's
// overflow chain goes back to the pager's free list and the live-byte
// counter retreats by the entry's payload. Pages are not merged, so a
// page may stay underfull, but a leaf that the delete empties is
// unlinked from its parent and freed, and so is an interior node left
// without children; the root page stays and becomes an empty leaf when
// the last key goes. A cursor therefore never walks past empty leaves,
// however many keys were deleted. Freed pages may be reused by the next
// allocation: no cursor over the tree may be open across a Delete.
func (t *BTree) Delete(key []byte) (bool, error) {
	var path []cursorLevel // interior pages above the leaf, with the child index taken
	id := t.root
	for {
		view, err := t.pg.View(id)
		if err != nil {
			return false, err
		}
		i, exact := search(view, key)
		if pageType(view) == typeLeaf {
			if !exact {
				return false, nil
			}
			p, err := t.pg.Mut(id)
			if err != nil {
				return false, err
			}
			old, err := t.dropLeafCell(p, i)
			if err != nil {
				return false, err
			}
			t.live -= int64(len(key)) + old
			if nCells(p) == 0 && id != t.root {
				return true, t.unlink(id, path)
			}
			return true, nil
		}
		path = append(path, cursorLevel{page: id, idx: i})
		id = interiorChild(view, i)
	}
}

// unlink frees the emptied page id and removes it from its parent (the
// last level of path), walking up while that leaves a parent without
// children. An emptied root is rewritten as an empty leaf in place.
func (t *BTree) unlink(id pager.PageID, path []cursorLevel) error {
	for {
		if err := t.pg.Free(id); err != nil {
			return err
		}
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		p, err := t.pg.Mut(parent.page)
		if err != nil {
			return err
		}
		n := nCells(p)
		if n > 0 {
			// Dropping child i with its router key hands child i's key
			// range to its right neighbour. The rightmost child has no
			// router: the last cell's child takes its place instead.
			if parent.idx < n {
				removeCell(p, parent.idx)
			} else {
				setRightChild(p, interiorChild(p, n-1))
				removeCell(p, n-1)
			}
			return nil
		}
		// The parent's only child is gone.
		if parent.page == t.root {
			initPage(p, typeLeaf)
			return nil
		}
		id = parent.page
	}
}

// Pages enumerates every page the tree owns — interior and leaf nodes
// plus all overflow chains — so the store layer can return them to the
// pager's free list when a keyspace is dropped or rewritten by vacuum.
func (t *BTree) Pages() ([]pager.PageID, error) {
	var out []pager.PageID
	var walk func(id pager.PageID) error
	walk = func(id pager.PageID) error {
		p, err := t.pg.View(id)
		if err != nil {
			return err
		}
		out = append(out, id)
		if pageType(p) == typeLeaf {
			for i := 0; i < nCells(p); i++ {
				_, ovfl := leafCellValue(p, i)
				for ovfl != 0 {
					op, err := t.pg.View(ovfl)
					if err != nil {
						return err
					}
					out = append(out, ovfl)
					ovfl = pager.PageID(binary.BigEndian.Uint32(op[0:]))
				}
			}
			return nil
		}
		for i := 0; i <= nCells(p); i++ { // interior has nCells+1 children
			if err := walk(interiorChild(p, i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	return out, nil
}

// Cursor iterates keys in ascending order. It must not be used across
// writes to the same tree (callers hold the tree's lock while
// iterating).
type Cursor struct {
	t     *BTree
	stack []cursorLevel
	err   error
	valid bool
}

type cursorLevel struct {
	page pager.PageID
	idx  int
}

// NewCursor returns an unpositioned cursor; call Seek first.
func (t *BTree) NewCursor() *Cursor { return &Cursor{t: t} }

// Seek positions the cursor at the first key >= key.
func (c *Cursor) Seek(key []byte) {
	c.stack = c.stack[:0]
	c.err = nil
	c.valid = false
	id := c.t.root
	for {
		p, err := c.t.pg.View(id)
		if err != nil {
			c.err = err
			return
		}
		i, _ := search(p, key)
		c.stack = append(c.stack, cursorLevel{page: id, idx: i})
		if pageType(p) == typeLeaf {
			if i < nCells(p) {
				c.valid = true
				return
			}
			c.advance()
			return
		}
		id = interiorChild(p, i)
	}
}

// Next advances to the next key.
func (c *Cursor) Next() {
	if !c.valid {
		return
	}
	top := &c.stack[len(c.stack)-1]
	p, err := c.t.pg.View(top.page)
	if err != nil {
		c.err, c.valid = err, false
		return
	}
	top.idx++
	if top.idx < nCells(p) {
		return
	}
	c.advance()
}

// advance pops exhausted levels and descends to the next leaf cell.
func (c *Cursor) advance() {
	c.valid = false
	// Pop the exhausted leaf.
	c.stack = c.stack[:len(c.stack)-1]
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		p, err := c.t.pg.View(top.page)
		if err != nil {
			c.err = err
			return
		}
		top.idx++
		if top.idx <= nCells(p) { // interior has nCells+1 children
			if c.descendMin(interiorChild(p, top.idx)) {
				return
			}
			continue // empty subtree: keep advancing at this level
		}
		c.stack = c.stack[:len(c.stack)-1]
	}
}

// descendMin pushes the path to the smallest key under id; returns
// true if it found a leaf cell. Delete unlinks the leaves it empties,
// but files written by earlier builds, whose deletes left empty leaves
// in place, can still hold some, so the minimum is not always down the
// leftmost path: each interior level tries its children left to right
// until one subtree yields a cell.
func (c *Cursor) descendMin(id pager.PageID) bool {
	p, err := c.t.pg.View(id)
	if err != nil {
		c.err = err
		return false
	}
	if pageType(p) == typeLeaf {
		if nCells(p) == 0 {
			return false
		}
		c.stack = append(c.stack, cursorLevel{page: id, idx: 0})
		c.valid = true
		return true
	}
	for i := 0; i <= nCells(p); i++ {
		c.stack = append(c.stack, cursorLevel{page: id, idx: i})
		if c.descendMin(interiorChild(p, i)) {
			return true
		}
		c.stack = c.stack[:len(c.stack)-1]
		if c.err != nil {
			return false
		}
	}
	return false
}

// Valid reports whether the cursor is on a cell.
func (c *Cursor) Valid() bool { return c.valid }

// Err returns the first I/O error the cursor hit.
func (c *Cursor) Err() error { return c.err }

// Key returns a copy of the current key.
func (c *Cursor) Key() []byte {
	if !c.valid {
		return nil
	}
	top := c.stack[len(c.stack)-1]
	p, err := c.t.pg.View(top.page)
	if err != nil {
		c.err, c.valid = err, false
		return nil
	}
	return append([]byte(nil), cellKey(p, top.idx)...)
}

// Value returns a copy of the current value (following overflow).
func (c *Cursor) Value() []byte {
	if !c.valid {
		return nil
	}
	top := c.stack[len(c.stack)-1]
	p, err := c.t.pg.View(top.page)
	if err != nil {
		c.err, c.valid = err, false
		return nil
	}
	v, _, err := c.t.materialize(p, top.idx)
	if err != nil {
		c.err, c.valid = err, false
		return nil
	}
	return v
}

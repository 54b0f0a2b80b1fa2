package mach

import (
	"bytes"
	"crypto/sha256"
	"sync"
)

// Copy-on-write paged memory backing the bus's Flash and SRAM and the
// bulk storage of Paged devices (the SD card's blocks). The address
// spaces are carved into fixed 4 KiB pages. A fresh store points every
// slot at one shared zero page that no store ever owns, so it allocates
// only the pages its loader and run write: the first store to a slot
// copies the page it holds. A checkpoint (snapshotPages) freezes the
// current page set, so the snapshot and the live store share every
// page until a store diverges one. Restoring is O(diverged pages): only
// slots the run dirtied since the checkpoint swing back to their frozen
// pages. This is what makes fork-per-trial injection campaigns cheap —
// a trial that touches a dozen pages pays for a dozen page copies, not
// a full power-on image rebuild.
//
// Accesses are bounds-checked by the bus (resolve/contains) before
// they reach this layer, so page arithmetic here never escapes size.

const (
	pageShift = 12 // 4 KiB pages
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page is one 4 KiB page. It is private to the store that allocated it
// and written in place until a capture freezes it; a frozen page never
// changes again and may be shared by any number of stores, snapshots
// and state frames. A frozen page keeps its SHA-256 once a digest has
// read it (page.sum, stateframe.go), so the memo lives and dies with
// the page.
type page struct {
	b       [pageSize]byte
	frozen  bool
	sumOnce sync.Once
	sumv    [sha256.Size]byte
}

// zeroPage backs every slot no store has written. It is frozen from the
// start, so the first store to a slot copies it.
var zeroPage = &page{frozen: true}

// pagedMem is one page store: Flash, SRAM or a device's storage.
type pagedMem struct {
	size  int
	pages []*page // the tail page is padded
}

// PageStore is a page store as the device models see it: a Paged
// device keeps its bulk storage in one and reads and writes it with
// Read and Write.
type PageStore = pagedMem

func newPagedMem(size int) *pagedMem {
	pm := &pagedMem{size: size, pages: make([]*page, (size+pageSize-1)>>pageShift)}
	for i := range pm.pages {
		pm.pages[i] = zeroPage
	}
	return pm
}

// NewPageStore returns a page store holding a copy of img. Pages of img
// that are all zero stay the shared zero page.
func NewPageStore(img []byte) *PageStore {
	pm := newPagedMem(len(img))
	for off := 0; off < len(img); off += pageSize {
		if chunk := img[off:min(off+pageSize, len(img))]; !bytes.Equal(chunk, zeroPage.b[:len(chunk)]) {
			pm.Write(off, chunk)
		}
	}
	return pm
}

// writablePage returns page pi's bytes with write ownership, copying
// the page first if it is frozen: shared with a checkpoint, or the
// zero page.
func (pm *pagedMem) writablePage(pi uint32) *[pageSize]byte {
	p := pm.pages[pi]
	if p.frozen {
		cp := new(page)
		cp.b = p.b
		pm.pages[pi] = cp
		p = cp
	}
	return &p.b
}

// readLE reads a 1/2/4-byte little-endian value at off. The rare
// page-straddling access assembles bytes across the boundary.
func (pm *pagedMem) readLE(off uint32, size int) uint32 {
	o := off & pageMask
	if int(o)+size <= pageSize {
		return readLE(pm.pages[off>>pageShift].b[o:], size)
	}
	var v uint32
	for i := 0; i < size; i++ {
		a := off + uint32(i)
		v |= uint32(pm.pages[a>>pageShift].b[a&pageMask]) << (8 * i)
	}
	return v
}

// writeLE writes a 1/2/4-byte little-endian value at off, diverging
// every touched page from its snapshot.
func (pm *pagedMem) writeLE(off uint32, size int, v uint32) {
	o := off & pageMask
	if int(o)+size <= pageSize {
		writeLE(pm.writablePage(off >> pageShift)[o:], size, v)
		return
	}
	for i := 0; i < size; i++ {
		a := off + uint32(i)
		pm.writablePage(a >> pageShift)[a&pageMask] = byte(v >> (8 * i))
	}
}

// view returns a read-only slice over [off, off+n) when the range lies
// within one page, nil otherwise (callers fall back to a byte loop).
// The view must not be written: the page may be frozen.
func (pm *pagedMem) view(off uint32, n int) []byte {
	if n <= 0 {
		return nil
	}
	if (off >> pageShift) != ((off + uint32(n) - 1) >> pageShift) {
		return nil
	}
	o := off & pageMask
	return pm.pages[off>>pageShift].b[o : o+uint32(n)]
}

// writableView is view with write ownership of the underlying page.
func (pm *pagedMem) writableView(off uint32, n int) []byte {
	if n <= 0 {
		return nil
	}
	if (off >> pageShift) != ((off + uint32(n) - 1) >> pageShift) {
		return nil
	}
	o := off & pageMask
	return pm.writablePage(off >> pageShift)[o : o+uint32(n)]
}

// Size is the store's capacity in bytes.
func (pm *pagedMem) Size() int { return pm.size }

// Read copies the len(dst) bytes at off into dst; the caller keeps the
// range within Size.
func (pm *pagedMem) Read(off int, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, pm.pages[off>>pageShift].b[off&pageMask:])
		dst, off = dst[n:], off+n
	}
}

// Write copies src into the store at off, diverging every touched page
// from its snapshot; the caller keeps the range within Size.
func (pm *pagedMem) Write(off int, src []byte) {
	for len(src) > 0 {
		n := copy(pm.writablePage(uint32(off >> pageShift))[off&pageMask:], src)
		src, off = src[n:], off+n
	}
}

// Bytes returns a copy of the store's contents.
func (pm *pagedMem) Bytes() []byte {
	b := make([]byte, pm.size)
	pm.Read(0, b)
	return b
}

// snapshotPages freezes the current contents and returns the frozen
// page set: every page the store owned becomes immutable, so its next
// store to any slot copies first. Pages already frozen are shared with
// other stores and are only read.
func (pm *pagedMem) snapshotPages() []*page {
	for _, p := range pm.pages {
		if !p.frozen {
			p.frozen = true
		}
	}
	snap := make([]*page, len(pm.pages))
	copy(snap, pm.pages)
	return snap
}

// restorePages rewinds the memory to a snapshotPages checkpoint,
// swapping back only slots whose page differs: pages written since the
// checkpoint, or pages of a different checkpoint generation. Returns
// the number of pages swapped — the fork cost observability metric.
func (pm *pagedMem) restorePages(snap []*page) int {
	dirty := 0
	for i, p := range snap {
		if pm.pages[i] != p {
			pm.pages[i] = p
			dirty++
		}
	}
	return dirty
}

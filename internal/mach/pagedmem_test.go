package mach

import (
	"bytes"
	"testing"
)

// TestPagedMemSharesZeroPage covers the shared zero page: a fresh store
// owns no page, a store copies exactly the page it writes and leaves
// the zero page all zero, and a snapshot and a restore keep every
// untouched slot on the zero page.
func TestPagedMemSharesZeroPage(t *testing.T) {
	pm := newPagedMem(4*pageSize - 100) // a padded tail page too
	if len(pm.pages) != 4 {
		t.Fatalf("%d pages, want 4", len(pm.pages))
	}
	for i, p := range pm.pages {
		if p != zeroPage {
			t.Errorf("fresh slot %d holds its own page, want the zero page", i)
		}
	}
	if got := pm.readLE(2*pageSize+8, 4); got != 0 {
		t.Errorf("fresh read = %#x, want 0", got)
	}

	pm.writeLE(pageSize+12, 4, 0xCAFEF00D)
	for i, p := range pm.pages {
		if shared := p == zeroPage; shared != (i != 1) {
			t.Errorf("after one store, slot %d shares the zero page = %v", i, shared)
		}
	}
	if pm.pages[1].frozen {
		t.Error("the stored-to page is frozen, want it owned")
	}
	if !bytes.Equal(zeroPage.b[:], make([]byte, pageSize)) {
		t.Fatal("a store wrote the zero page")
	}
	if got := pm.readLE(pageSize+12, 4); got != 0xCAFEF00D {
		t.Errorf("read back %#x", got)
	}

	snap := pm.snapshotPages()
	pm.writeLE(3*pageSize+4, 2, 0xBEEF)
	if n := pm.restorePages(snap); n != 1 {
		t.Errorf("restore swapped %d pages, want 1", n)
	}
	for i, p := range pm.pages {
		if p != snap[i] {
			t.Errorf("slot %d after restore is not the snapshot's page", i)
		}
		if shared := p == zeroPage; shared != (i != 1) {
			t.Errorf("after snapshot and restore, slot %d shares the zero page = %v", i, shared)
		}
	}
	if !bytes.Equal(zeroPage.b[:], make([]byte, pageSize)) {
		t.Fatal("a store after the snapshot wrote the zero page")
	}
}

// TestPageStoreBytes covers the device-facing page store: only the
// non-zero pages of an image are copied, and Read, Write and Bytes
// agree with a flat buffer across page boundaries.
func TestPageStoreBytes(t *testing.T) {
	img := make([]byte, 3*pageSize+512)
	img[pageSize+7] = 0x5A
	img[3*pageSize+511] = 0xA5
	ps := NewPageStore(img)
	for i, p := range ps.pages {
		if shared := p == zeroPage; shared != (i == 0 || i == 2) {
			t.Errorf("slot %d shares the zero page = %v", i, shared)
		}
	}
	if !bytes.Equal(ps.Bytes(), img) {
		t.Fatal("Bytes differs from the image")
	}

	src := bytes.Repeat([]byte{0x11, 0x22, 0x33}, 300) // straddles pages 1 and 2
	ps.Write(2*pageSize-400, src)
	copy(img[2*pageSize-400:], src)
	if !bytes.Equal(ps.Bytes(), img) {
		t.Fatal("Bytes differs from the image after a straddling Write")
	}
	dst := make([]byte, len(src))
	ps.Read(2*pageSize-400, dst)
	if !bytes.Equal(dst, src) {
		t.Error("Read does not return what Write stored")
	}
	if !bytes.Equal(zeroPage.b[:], make([]byte, pageSize)) {
		t.Fatal("a Write wrote the zero page")
	}
}

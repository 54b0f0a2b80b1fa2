package dev

import (
	"encoding/binary"
	"fmt"

	"opec/internal/mach"
)

// SDIO register offsets (simplified STM32 SDIO layout).
const (
	SdioARG  = 0x08 // block number
	SdioCMD  = 0x0C // command index
	SdioSTA  = 0x34 // status: bit0 busy, bit1 data ready
	SdioFIFO = 0x80 // data FIFO (32-bit words)
)

// SD commands the model understands.
const (
	SdCmdReadBlock  = 17
	SdCmdWriteBlock = 24
)

// SDIO status bits.
const (
	SdStaBusy  = 1 << 0
	SdStaReady = 1 << 1
)

// BlockSize is the SD block size.
const BlockSize = 512

// SDCard models an SDIO host + card: firmware writes the block number
// to ARG, the command to CMD, waits for STA.ready (the card's latency
// is cycle-scheduled), then streams 128 words through the FIFO. The
// card's blocks live in a page store (mach.Paged), which machine
// checkpoints freeze and restore copy-on-write with Flash and SRAM.
type SDCard struct {
	Clk     *mach.Clock
	Latency uint64 // cycles per block operation

	pages *mach.PageStore // card contents

	arg     uint32
	cmd     uint32
	readyAt uint64
	buf     [BlockSize]byte
	bufPos  int

	Reads, Writes uint64
}

// NewSDCard returns a card holding a copy of a raw disk image (length
// multiple of 512).
func NewSDCard(clk *mach.Clock, img []byte, latency uint64) *SDCard {
	if len(img)%BlockSize != 0 {
		panic("dev: SD image not block-aligned")
	}
	return &SDCard{Clk: clk, pages: mach.NewPageStore(img), Latency: latency}
}

// Name, Base, Size implement mach.Device.
func (s *SDCard) Name() string { return "SDIO" }
func (s *SDCard) Base() uint32 { return mach.SDIOBase }
func (s *SDCard) Size() uint32 { return 0x400 }

// Data returns a copy of the card's contents (tests and host-side
// verification).
func (s *SDCard) Data() []byte { return s.pages.Bytes() }

// Pages implements mach.Paged.
func (s *SDCard) Pages() *mach.PageStore { return s.pages }

// Load implements the register file.
func (s *SDCard) Load(off uint32, _ int) uint32 {
	switch off {
	case SdioSTA:
		if s.Clk.Now() < s.readyAt {
			return SdStaBusy
		}
		return SdStaReady
	case SdioFIFO:
		if s.cmd != SdCmdReadBlock || s.Clk.Now() < s.readyAt || s.bufPos >= BlockSize {
			return 0
		}
		v := binary.LittleEndian.Uint32(s.buf[s.bufPos:])
		s.bufPos += 4
		return v
	case SdioARG:
		return s.arg
	}
	return 0
}

// Store implements the register file.
func (s *SDCard) Store(off uint32, _ int, v uint32) {
	switch off {
	case SdioARG:
		s.arg = v
	case SdioCMD:
		s.cmd = v
		s.readyAt = s.Clk.Now() + s.Latency
		s.bufPos = 0
		switch v {
		case SdCmdReadBlock:
			s.Reads++
			start := int(s.arg) * BlockSize
			if start+BlockSize <= s.pages.Size() {
				s.pages.Read(start, s.buf[:])
			} else {
				s.buf = [BlockSize]byte{}
			}
		case SdCmdWriteBlock:
			s.Writes++
			s.buf = [BlockSize]byte{}
		}
	case SdioFIFO:
		if s.cmd != SdCmdWriteBlock || s.bufPos >= BlockSize {
			return
		}
		binary.LittleEndian.PutUint32(s.buf[s.bufPos:], v)
		s.bufPos += 4
		if s.bufPos == BlockSize {
			start := int(s.arg) * BlockSize
			if start+BlockSize <= s.pages.Size() {
				s.pages.Write(start, s.buf[:])
			}
		}
	}
}

// ---- FAT16 disk-image builder (host side) ----
//
// The FatFs driver in internal/hal parses these structures from IR
// code, sector by sector, through the SDIO FIFO. Geometry: 512 B
// sectors, 1 sector/cluster, 1 FAT, 64 root entries.

// FAT16 geometry constants shared with the IR driver.
const (
	FatReservedSectors = 1
	FatSectors         = 4  // 4 sectors * 256 entries = 1024 clusters
	RootDirEntries     = 64 // 4 sectors
	RootDirSectors     = RootDirEntries * 32 / BlockSize
	DataStartSector    = FatReservedSectors + FatSectors + RootDirSectors
)

// FatImage incrementally builds a FAT16 volume.
type FatImage struct {
	img         []byte
	nextCluster uint16
	nextRootEnt int
}

// NewFatImage creates an empty formatted volume of totalSectors.
func NewFatImage(totalSectors int) *FatImage {
	f := &FatImage{
		img:         make([]byte, totalSectors*BlockSize),
		nextCluster: 2,
	}
	bs := f.img[:BlockSize]
	copy(bs[3:], []byte("OPECFAT "))
	binary.LittleEndian.PutUint16(bs[11:], BlockSize) // bytes/sector
	bs[13] = 1                                        // sectors/cluster
	binary.LittleEndian.PutUint16(bs[14:], FatReservedSectors)
	bs[16] = 1 // number of FATs
	binary.LittleEndian.PutUint16(bs[17:], RootDirEntries)
	binary.LittleEndian.PutUint16(bs[19:], uint16(totalSectors))
	binary.LittleEndian.PutUint16(bs[22:], FatSectors)
	bs[510], bs[511] = 0x55, 0xAA
	// FAT[0], FAT[1] reserved.
	f.setFat(0, 0xFFF8)
	f.setFat(1, 0xFFFF)
	return f
}

func (f *FatImage) setFat(cluster int, val uint16) {
	off := FatReservedSectors*BlockSize + cluster*2
	binary.LittleEndian.PutUint16(f.img[off:], val)
}

func (f *FatImage) fat(cluster int) uint16 {
	off := FatReservedSectors*BlockSize + cluster*2
	return binary.LittleEndian.Uint16(f.img[off:])
}

// AddFile writes data under an 8.3 name (e.g. "PIC1    BMP").
// The name must be exactly 11 bytes.
func (f *FatImage) AddFile(name83 string, data []byte) error {
	if len(name83) != 11 {
		return fmt.Errorf("dev: 8.3 name must be 11 bytes, got %q", name83)
	}
	if f.nextRootEnt >= RootDirEntries {
		return fmt.Errorf("dev: root directory full")
	}
	first := f.nextCluster
	n := (len(data) + BlockSize - 1) / BlockSize
	if n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		c := f.nextCluster
		sector := DataStartSector + int(c) - 2
		end := (i + 1) * BlockSize
		if end > len(data) {
			end = len(data)
		}
		if i*BlockSize < len(data) {
			copy(f.img[sector*BlockSize:], data[i*BlockSize:end])
		}
		if i == n-1 {
			f.setFat(int(c), 0xFFFF)
		} else {
			f.setFat(int(c), c+1)
		}
		f.nextCluster++
	}
	ent := f.img[(FatReservedSectors+FatSectors)*BlockSize+f.nextRootEnt*32:]
	copy(ent[:11], name83)
	ent[11] = 0x20 // archive
	binary.LittleEndian.PutUint16(ent[26:], first)
	binary.LittleEndian.PutUint32(ent[28:], uint32(len(data)))
	f.nextRootEnt++
	return nil
}

// ReadFile extracts a file by 8.3 name (host-side verification of what
// the IR driver wrote).
func (f *FatImage) ReadFile(name83 string) ([]byte, bool) {
	for i := 0; i < RootDirEntries; i++ {
		ent := f.img[(FatReservedSectors+FatSectors)*BlockSize+i*32:]
		if ent[0] == 0 {
			break
		}
		if string(ent[:11]) != name83 {
			continue
		}
		size := int(binary.LittleEndian.Uint32(ent[28:]))
		c := binary.LittleEndian.Uint16(ent[26:])
		var out []byte
		for c >= 2 && c < 0xFFF0 && len(out) < size {
			sector := DataStartSector + int(c) - 2
			out = append(out, f.img[sector*BlockSize:(sector+1)*BlockSize]...)
			c = f.fat(int(c))
		}
		if len(out) > size {
			out = out[:size]
		}
		return out, true
	}
	return nil, false
}

// Bytes returns the image.
func (f *FatImage) Bytes() []byte { return f.img }

// ReadFileFromImage parses a raw image (e.g. the SD card contents after
// the firmware ran) for a file.
func ReadFileFromImage(img []byte, name83 string) ([]byte, bool) {
	fi := &FatImage{img: img}
	return fi.ReadFile(name83)
}

package dev

import (
	"fmt"
	"sort"

	"opec/internal/mach"
)

// This file implements mach.Stateful for every device model: a
// SaveState/LoadState pair over all mutable register-file and stream
// state, so a machine snapshot captures peripherals exactly and a
// restored trial replays their scripted inputs deterministically.
// Configuration that never mutates during a run (base addresses, clock
// wiring, pacing intervals, latencies) is not serialized — a snapshot
// restores into the device instance it was taken from.
//
// The encoding is a private little-endian byte stream with
// length-prefixed slices. It is an in-memory format, not an archive
// format: no versioning, because a snapshot never outlives the process.

// Compile-time checks that every device model participates in
// snapshots.
var (
	_ mach.Stateful = (*UART)(nil)
	_ mach.Stateful = (*GPIO)(nil)
	_ mach.Stateful = (*RCC)(nil)
	_ mach.Stateful = (*Regs)(nil)
	_ mach.Stateful = (*RNG)(nil)
	_ mach.Stateful = (*SDCard)(nil)
	_ mach.Stateful = (*LCD)(nil)
	_ mach.Stateful = (*DMA2D)(nil)
	_ mach.Stateful = (*EthMAC)(nil)
	_ mach.Stateful = (*Camera)(nil)
	_ mach.Stateful = (*USBMSC)(nil)

	_ mach.Paged = (*SDCard)(nil)
)

// stateWriter appends primitive values to a buffer.
type stateWriter struct{ b []byte }

func (w *stateWriter) u8(v byte) { w.b = append(w.b, v) }
func (w *stateWriter) u32(v uint32) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (w *stateWriter) u64(v uint64) {
	w.u32(uint32(v))
	w.u32(uint32(v >> 32))
}
func (w *stateWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *stateWriter) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

// stateReader consumes a stateWriter buffer; the first malformed read
// latches err and zero-fills the rest, checked once by done().
type stateReader struct {
	b   []byte
	off int
	err error
}

func (r *stateReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("dev: truncated device state at offset %d", r.off)
	}
}
func (r *stateReader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
func (r *stateReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	b := r.b[r.off:]
	r.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func (r *stateReader) u64() uint64 {
	lo := r.u32()
	hi := r.u32()
	return uint64(lo) | uint64(hi)<<32
}
func (r *stateReader) bool() bool { return r.u8() != 0 }

// bytes returns a private copy: LoadState must leave the snapshot
// buffer untouched so it can restore again.
func (r *stateReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	cp := make([]byte, n)
	copy(cp, r.b[r.off:r.off+n])
	r.off += n
	return cp
}

func (r *stateReader) done(dev string) error {
	if r.err != nil {
		return fmt.Errorf("dev: %s: %w", dev, r.err)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("dev: %s: %d trailing bytes in device state", dev, len(r.b)-r.off)
	}
	return nil
}

// SaveState and LoadState implement mach.Stateful.
func (u *UART) SaveState() []byte {
	var w stateWriter
	w.bytes(u.rx)
	w.u64(u.rxReadyAt)
	w.bytes(u.TX)
	w.u32(u.brr)
	w.u32(u.cr1)
	return w.b
}

func (u *UART) LoadState(data []byte) error {
	r := stateReader{b: data}
	u.rx = r.bytes()
	u.rxReadyAt = r.u64()
	u.TX = r.bytes()
	u.brr = r.u32()
	u.cr1 = r.u32()
	return r.done("UART")
}

// SaveState and LoadState implement mach.Stateful.
func (g *GPIO) SaveState() []byte {
	var w stateWriter
	w.u32(g.moder)
	w.u32(g.odr)
	w.u32(uint32(g.PressPin))
	w.u64(g.PressAt)
	w.bool(g.hasPress)
	return w.b
}

func (g *GPIO) LoadState(data []byte) error {
	r := stateReader{b: data}
	g.moder = r.u32()
	g.odr = r.u32()
	g.PressPin = int(r.u32())
	g.PressAt = r.u64()
	g.hasPress = r.bool()
	return r.done("GPIO")
}

func saveRegs(regs *[256]uint32) []byte {
	var w stateWriter
	for _, v := range regs {
		w.u32(v)
	}
	return w.b
}

func loadRegs(regs *[256]uint32, data []byte, dev string) error {
	r := stateReader{b: data}
	for i := range regs {
		regs[i] = r.u32()
	}
	return r.done(dev)
}

// SaveState and LoadState implement mach.Stateful.
func (c *RCC) SaveState() []byte           { return saveRegs(&c.regs) }
func (c *RCC) LoadState(data []byte) error { return loadRegs(&c.regs, data, "RCC") }

// SaveState and LoadState implement mach.Stateful.
func (f *Regs) SaveState() []byte           { return saveRegs(&f.regs) }
func (f *Regs) LoadState(data []byte) error { return loadRegs(&f.regs, data, f.DevName) }

// SaveState and LoadState implement mach.Stateful.
func (n *RNG) SaveState() []byte {
	var w stateWriter
	w.u32(n.state)
	return w.b
}

func (n *RNG) LoadState(data []byte) error {
	r := stateReader{b: data}
	n.state = r.u32()
	return r.done("RNG")
}

// SaveState and LoadState implement mach.Stateful: the registers, the
// FIFO buffer and the counters. The card's blocks are its page store
// (mach.Paged), which the machine freezes and restores itself, so a
// forked trial sees the pre-injection filesystem, not a sibling's,
// without copying the card.
func (s *SDCard) SaveState() []byte {
	var w stateWriter
	w.u32(s.arg)
	w.u32(s.cmd)
	w.u64(s.readyAt)
	w.bytes(s.buf[:])
	w.u32(uint32(s.bufPos))
	w.u64(s.Reads)
	w.u64(s.Writes)
	return w.b
}

func (s *SDCard) LoadState(data []byte) error {
	r := stateReader{b: data}
	s.arg = r.u32()
	s.cmd = r.u32()
	s.readyAt = r.u64()
	buf := r.bytes()
	s.bufPos = int(r.u32())
	s.Reads = r.u64()
	s.Writes = r.u64()
	if err := r.done("SDIO"); err != nil {
		return err
	}
	if len(buf) != len(s.buf) {
		return fmt.Errorf("dev: SDIO: state is for a different FIFO size")
	}
	copy(s.buf[:], buf)
	return nil
}

// SaveState and LoadState implement mach.Stateful.
func (l *LCD) SaveState() []byte {
	var w stateWriter
	w.bool(l.On)
	w.u64(l.Pixels)
	w.u32(l.Checksum)
	w.u64(l.Frames)
	w.u32(uint32(l.paramWords))
	w.u64(l.busyUntil)
	return w.b
}

func (l *LCD) LoadState(data []byte) error {
	r := stateReader{b: data}
	l.On = r.bool()
	l.Pixels = r.u64()
	l.Checksum = r.u32()
	l.Frames = r.u64()
	l.paramWords = int(r.u32())
	l.busyUntil = r.u64()
	return r.done("LTDC")
}

// SaveState and LoadState implement mach.Stateful.
func (d *DMA2D) SaveState() []byte {
	var w stateWriter
	w.u32(d.src)
	w.u32(d.dst)
	w.u32(d.length)
	w.u32(d.alpha)
	w.u64(d.doneAt)
	w.u64(d.Transfers)
	return w.b
}

func (d *DMA2D) LoadState(data []byte) error {
	r := stateReader{b: data}
	d.src = r.u32()
	d.dst = r.u32()
	d.length = r.u32()
	d.alpha = r.u32()
	d.doneAt = r.u64()
	d.Transfers = r.u64()
	return r.done("DMA2D")
}

// SaveState and LoadState implement mach.Stateful.
func (e *EthMAC) SaveState() []byte {
	var w stateWriter
	w.u32(uint32(len(e.rxQueue)))
	for _, f := range e.rxQueue {
		w.bytes(f)
	}
	w.u64(e.rxReadyAt)
	w.u32(uint32(e.rxPos))
	w.u32(uint32(e.txLen))
	w.bytes(e.txBuf)
	w.u32(uint32(len(e.TxFrames)))
	for _, f := range e.TxFrames {
		w.bytes(f)
	}
	return w.b
}

func (e *EthMAC) LoadState(data []byte) error {
	r := stateReader{b: data}
	nrx := int(r.u32())
	rx := make([][]byte, 0, nrx)
	for i := 0; i < nrx && r.err == nil; i++ {
		rx = append(rx, r.bytes())
	}
	e.rxReadyAt = r.u64()
	e.rxPos = int(r.u32())
	e.txLen = int(r.u32())
	txBuf := r.bytes()
	ntx := int(r.u32())
	tx := make([][]byte, 0, ntx)
	for i := 0; i < ntx && r.err == nil; i++ {
		tx = append(tx, r.bytes())
	}
	if err := r.done("ETH"); err != nil {
		return err
	}
	e.rxQueue = rx
	e.txBuf = txBuf
	e.TxFrames = tx
	return nil
}

// SaveState and LoadState implement mach.Stateful.
func (c *Camera) SaveState() []byte {
	var w stateWriter
	w.u64(c.Captures)
	w.u64(c.readyAt)
	w.u32(uint32(c.pos))
	return w.b
}

func (c *Camera) LoadState(data []byte) error {
	r := stateReader{b: data}
	c.Captures = r.u64()
	c.readyAt = r.u64()
	c.pos = int(r.u32())
	return r.done("DCMI")
}

// SaveState and LoadState implement mach.Stateful. Sectors serialize
// in ascending key order so identical states produce identical bytes
// (the snapshot ID hashes this stream).
func (u *USBMSC) SaveState() []byte {
	var w stateWriter
	w.u32(u.sector)
	w.bytes(u.buf)
	w.u64(u.readyAt)
	keys := make([]uint32, 0, len(u.Sectors))
	for k := range u.Sectors {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.u32(uint32(len(keys)))
	for _, k := range keys {
		w.u32(k)
		w.bytes(u.Sectors[k])
	}
	return w.b
}

func (u *USBMSC) LoadState(data []byte) error {
	r := stateReader{b: data}
	sector := r.u32()
	buf := r.bytes()
	readyAt := r.u64()
	n := int(r.u32())
	sectors := make(map[uint32][]byte, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.u32()
		sectors[k] = r.bytes()
	}
	if err := r.done("USBFS"); err != nil {
		return err
	}
	u.sector = sector
	u.buf = buf
	u.readyAt = readyAt
	u.Sectors = sectors
	return nil
}

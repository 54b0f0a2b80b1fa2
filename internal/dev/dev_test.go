package dev

import (
	"bytes"
	"testing"
	"testing/quick"

	"opec/internal/mach"
)

func TestUARTPacing(t *testing.T) {
	clk := &mach.Clock{}
	u := NewUART(mach.USART2Base, clk, 100)
	u.QueueRx([]byte("hi"))
	if u.Load(UartSR, 4)&UartRXNE != 0 {
		t.Error("byte ready before the pacing interval")
	}
	clk.Advance(100)
	if u.Load(UartSR, 4)&UartRXNE == 0 {
		t.Fatal("byte not ready after interval")
	}
	if b := u.Load(UartDR, 4); b != 'h' {
		t.Errorf("DR = %c", b)
	}
	// Second byte re-paced.
	if u.Load(UartSR, 4)&UartRXNE != 0 {
		t.Error("second byte ready immediately")
	}
	clk.Advance(100)
	if b := u.Load(UartDR, 4); b != 'i' {
		t.Errorf("DR = %c", b)
	}
	u.Store(UartDR, 4, 'o')
	u.Store(UartDR, 4, 'k')
	if u.TXString() != "ok" {
		t.Errorf("TX = %q", u.TXString())
	}
}

func TestGPIOButtonAndBSRR(t *testing.T) {
	clk := &mach.Clock{}
	g := NewGPIO(mach.GPIOABase, clk)
	g.SchedulePress(3, 500)
	if g.Load(GpioIDR, 4) != 0 {
		t.Error("button pressed early")
	}
	clk.Advance(500)
	if g.Load(GpioIDR, 4)&(1<<3) == 0 {
		t.Error("button press not visible")
	}
	g.Store(GpioBSRR, 4, 1<<2)
	if g.Load(GpioODR, 4)&(1<<2) == 0 {
		t.Error("BSRR set failed")
	}
	g.Store(GpioBSRR, 4, 1<<(2+16))
	if g.Load(GpioODR, 4)&(1<<2) != 0 {
		t.Error("BSRR reset failed")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 10; i++ {
		if a.Load(RngDR, 4) != b.Load(RngDR, 4) {
			t.Fatal("RNG not deterministic")
		}
	}
	if a.Load(RngSR, 4) != 1 {
		t.Error("RNG never ready")
	}
}

func TestSDCardReadWrite(t *testing.T) {
	clk := &mach.Clock{}
	img := make([]byte, 16*BlockSize)
	for i := range img[BlockSize : 2*BlockSize] {
		img[BlockSize+i] = byte(i)
	}
	sd := NewSDCard(clk, img, 50)

	// Read block 1.
	sd.Store(SdioARG, 4, 1)
	sd.Store(SdioCMD, 4, SdCmdReadBlock)
	if sd.Load(SdioSTA, 4)&SdStaBusy == 0 {
		t.Error("card not busy during latency")
	}
	clk.Advance(50)
	if sd.Load(SdioSTA, 4)&SdStaReady == 0 {
		t.Fatal("card not ready")
	}
	w0 := sd.Load(SdioFIFO, 4)
	if w0 != 0x03020100 {
		t.Errorf("first word = %#x", w0)
	}

	// Write block 2.
	sd.Store(SdioARG, 4, 2)
	sd.Store(SdioCMD, 4, SdCmdWriteBlock)
	clk.Advance(50)
	for i := 0; i < BlockSize/4; i++ {
		sd.Store(SdioFIFO, 4, 0xA5A5A5A5)
	}
	if data := sd.Data(); data[2*BlockSize] != 0xA5 || data[3*BlockSize-1] != 0xA5 {
		t.Error("write did not commit")
	}
	if sd.Reads != 1 || sd.Writes != 1 {
		t.Errorf("counters: %d reads, %d writes", sd.Reads, sd.Writes)
	}
}

func TestFatImageRoundTrip(t *testing.T) {
	f := NewFatImage(128)
	data := bytes.Repeat([]byte("OPEC!"), 300) // 1500 B, 3 clusters
	if err := f.AddFile("HELLO   TXT", data); err != nil {
		t.Fatal(err)
	}
	small := []byte("tiny")
	if err := f.AddFile("TINY    TXT", small); err != nil {
		t.Fatal(err)
	}
	got, ok := f.ReadFile("HELLO   TXT")
	if !ok || !bytes.Equal(got, data) {
		t.Errorf("multi-cluster file corrupt: ok=%v len=%d", ok, len(got))
	}
	got2, ok2 := f.ReadFile("TINY    TXT")
	if !ok2 || !bytes.Equal(got2, small) {
		t.Error("small file corrupt")
	}
	if _, ok := f.ReadFile("NOPE    TXT"); ok {
		t.Error("phantom file found")
	}
	if _, ok := ReadFileFromImage(f.Bytes(), "TINY    TXT"); !ok {
		t.Error("ReadFileFromImage failed")
	}
	if err := f.AddFile("BAD", nil); err == nil {
		t.Error("short 8.3 name accepted")
	}
}

func TestFatImageBootSector(t *testing.T) {
	f := NewFatImage(64)
	img := f.Bytes()
	if img[510] != 0x55 || img[511] != 0xAA {
		t.Error("boot signature missing")
	}
	if img[11] != 0x00 || img[12] != 0x02 {
		t.Error("bytes/sector != 512")
	}
}

func TestLCDPixelsAndChecksum(t *testing.T) {
	clk := &mach.Clock{}
	l := NewLCD(clk)
	l.Store(LcdCMD, 4, LcdCmdOn)
	if !l.On {
		t.Error("panel not on")
	}
	l.Store(LcdCMD, 4, LcdCmdPixels)
	if l.Load(LcdSTA, 4) != 0 {
		t.Error("panel ready during refresh")
	}
	for i := 0; i < 10; i++ {
		l.Store(LcdDATA, 4, uint32(i))
	}
	clk.Advance(400_000)
	if l.Load(LcdSTA, 4) != 1 {
		t.Error("panel never ready")
	}
	if l.Pixels != 10 || l.Frames != 1 || l.Checksum == 0 {
		t.Errorf("pixels=%d frames=%d cs=%#x", l.Pixels, l.Frames, l.Checksum)
	}
}

func TestDMA2DCopyAndBlend(t *testing.T) {
	clk := &mach.Clock{}
	bus := mach.NewBus(1<<20, 64<<10, clk)
	d := NewDMA2D(clk, bus)
	src, dst := mach.SRAMBase, mach.SRAMBase+0x100
	bus.RawStore(src, 4, 0x00FF00FF)
	bus.RawStore(dst, 4, 0x00000000)

	d.Store(Dma2dSRC, 4, src)
	d.Store(Dma2dDST, 4, dst)
	d.Store(Dma2dLEN, 4, 1)
	d.Store(Dma2dCR, 4, 1) // copy
	clk.Advance(100)
	if v, _ := bus.RawLoad(dst, 4); v != 0x00FF00FF {
		t.Errorf("copy result = %#x", v)
	}

	// 50% blend toward 0xFF00FF00.
	bus.RawStore(src, 4, 0xFF00FF00)
	d.Store(Dma2dALPH, 4, 128)
	d.Store(Dma2dCR, 4, 1|1<<16)
	clk.Advance(100)
	v, _ := bus.RawLoad(dst, 4)
	for i := 0; i < 4; i++ {
		b := (v >> (8 * i)) & 0xFF
		if b < 0x70 || b > 0x90 {
			t.Errorf("blend byte %d = %#x, want ~0x80", i, b)
		}
	}
	if d.Transfers != 2 {
		t.Errorf("Transfers = %d", d.Transfers)
	}
}

func TestEthMACFrames(t *testing.T) {
	clk := &mach.Clock{}
	e := NewEthMAC(clk, 200)
	f1 := BuildTCPFrame(0x0A000001, 0x0A000002, 40000, 7, 1, 1, TCPPsh|TCPAck, []byte("ping"))
	e.QueueFrame(f1)
	if e.Load(EthRXSTA, 4) != 0 {
		t.Error("frame available before pacing")
	}
	clk.Advance(200)
	if e.Load(EthRXSTA, 4) != 1 {
		t.Fatal("frame never arrived")
	}
	if int(e.Load(EthRXLEN, 4)) != len(f1) {
		t.Error("length mismatch")
	}
	var rx []byte
	for i := 0; i < (len(f1)+3)/4; i++ {
		w := e.Load(EthRXFIFO, 4)
		rx = append(rx, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	if !bytes.Equal(rx[:len(f1)], f1) {
		t.Error("FIFO corrupted frame")
	}
	e.Store(EthRXACK, 4, 1)
	if e.Load(EthRXSTA, 4) != 0 {
		t.Error("frame still pending after ack")
	}

	// Transmit path.
	e.Store(EthTXLEN, 4, 8)
	e.Store(EthTXFIFO, 4, 0x64636261)
	e.Store(EthTXFIFO, 4, 0x68676665)
	e.Store(EthTXGO, 4, 1)
	if len(e.TxFrames) != 1 || string(e.TxFrames[0]) != "abcdefgh" {
		t.Errorf("TX frames = %q", e.TxFrames)
	}
}

func TestEthMACQueueValidation(t *testing.T) {
	clk := &mach.Clock{}
	e := NewEthMAC(clk, 100)
	e.QueueFrame(nil)
	e.QueueFrame([]byte{})
	e.QueueFrame(make([]byte, EthMaxFrame+1))
	if e.QueueLen() != 0 || e.DroppedFrames != 3 {
		t.Fatalf("invalid frames queued: len=%d dropped=%d", e.QueueLen(), e.DroppedFrames)
	}
	e.QueueFrame(make([]byte, EthMaxFrame)) // exactly at the cap: accepted
	e.QueueFrame([]byte{1})
	if e.QueueLen() != 2 || e.DroppedFrames != 3 {
		t.Errorf("valid frames rejected: len=%d dropped=%d", e.QueueLen(), e.DroppedFrames)
	}
	qs := e.QueuedFrames()
	if len(qs) != 2 || len(qs[0]) != EthMaxFrame || len(qs[1]) != 1 {
		t.Errorf("QueuedFrames = %d frames", len(qs))
	}
	qs[1][0] = 99 // copies: mutating the snapshot must not touch the queue
	if e.rxQueue[1][0] != 1 {
		t.Error("QueuedFrames aliases the live queue")
	}
}

func TestEthMACReplaceFrame(t *testing.T) {
	clk := &mach.Clock{}
	e := NewEthMAC(clk, 100)
	e.QueueFrame([]byte{1, 2, 3, 4})
	e.QueueFrame([]byte{5, 6, 7, 8})
	if e.ReplaceFrame(-1, []byte{9}) || e.ReplaceFrame(2, []byte{9}) {
		t.Error("out-of-range slot replaced")
	}
	if e.ReplaceFrame(0, nil) || e.ReplaceFrame(0, make([]byte, EthMaxFrame+1)) {
		t.Error("invalid frame accepted")
	}
	// Partially drain frame 0, then replace it: the FIFO cursor must
	// rewind so the guest reads the new frame from its start.
	clk.Advance(100)
	e.Load(EthRXFIFO, 4)
	src := []byte{0xAA, 0xBB}
	if !e.ReplaceFrame(0, src) {
		t.Fatal("valid replacement rejected")
	}
	src[0] = 0 // replacement must have copied
	if w := e.Load(EthRXFIFO, 4); w != 0xBBAA {
		t.Errorf("FIFO after replace = %#x, want 0xBBAA", w)
	}
	if !e.ReplaceFrame(1, []byte{9}) || e.rxQueue[1][0] != 9 {
		t.Error("replacement of queued frame failed")
	}
}

func TestEthMACTxLenClamp(t *testing.T) {
	clk := &mach.Clock{}
	e := NewEthMAC(clk, 100)
	// A hostile guest programs a huge TX length; the MAC clamps to its
	// FIFO capacity instead of sizing a host allocation from it.
	e.Store(EthTXLEN, 4, 0xFFFF_FFFF)
	e.Store(EthTXFIFO, 4, 0x04030201)
	e.Store(EthTXGO, 4, 1)
	if len(e.TxFrames) != 1 || len(e.TxFrames[0]) != EthMaxFrame {
		t.Fatalf("TX frame len = %d, want clamp to %d", len(e.TxFrames[0]), EthMaxFrame)
	}
	// Words pushed past the FIFO capacity fall off the end.
	e.Store(EthTXLEN, 4, EthMaxFrame)
	for i := 0; i < EthMaxFrame; i++ {
		e.Store(EthTXFIFO, 4, uint32(i))
	}
	if len(e.txBuf) > EthMaxFrame+3 {
		t.Errorf("TX FIFO grew to %d bytes", len(e.txBuf))
	}
}

func TestEthMACUnknownRegsRAZWI(t *testing.T) {
	clk := &mach.Clock{}
	e := NewEthMAC(clk, 100)
	e.QueueFrame([]byte{1, 2, 3, 4})
	for _, off := range []uint32{0x1C, 0x100, 0x13FC} {
		e.Store(off, 4, 0xDEADBEEF)
		if v := e.Load(off, 4); v != 0 {
			t.Errorf("unknown offset %#x reads %#x, want RAZ", off, v)
		}
	}
	if e.QueueLen() != 1 || len(e.TxFrames) != 0 {
		t.Error("unknown-offset writes perturbed MAC state")
	}
}

// A load that starts inside the ETH window but runs past its end must
// resolve to no target and raise a bus fault, not reach the device.
func TestEthMACStraddleFaults(t *testing.T) {
	clk := &mach.Clock{}
	bus := mach.NewBus(1<<20, 64<<10, clk)
	e := NewEthMAC(clk, 100)
	if err := bus.Attach(e); err != nil {
		t.Fatal(err)
	}
	end := e.Base() + e.Size()
	if _, f := bus.Load(end-2, 4, true); f == nil || f.Kind != mach.FaultBus {
		t.Errorf("straddling load fault = %v, want bus fault", f)
	}
	if f := bus.Store(end-2, 4, 0, true); f == nil || f.Kind != mach.FaultBus {
		t.Errorf("straddling store fault = %v, want bus fault", f)
	}
	// Last fully in-window word is a normal RAZ/WI register access.
	if _, f := bus.Load(end-4, 4, true); f != nil {
		t.Errorf("in-window load faulted: %v", f)
	}
}

func TestPacketBuilders(t *testing.T) {
	valid := BuildTCPFrame(0x0A000001, 0x0A000002, 40000, 7, 5, 6, TCPPsh|TCPAck, []byte("echo me"))
	payload, ok := ParseEchoPayload(valid)
	if !ok || string(payload) != "echo me" {
		t.Errorf("ParseEchoPayload = %q, %v", payload, ok)
	}
	bad := CorruptChecksum(valid)
	if bytes.Equal(bad, valid) {
		t.Error("corruption did nothing")
	}
	udp := BuildUDPFrame(0x0A000001, 0x0A000002, []byte("x"))
	if udp[EthHeaderLen+9] != 17 {
		t.Error("UDP proto wrong")
	}
	if _, ok := ParseEchoPayload(udp); ok {
		t.Error("UDP parsed as TCP")
	}
}

// Property: the IP checksum the builder writes always validates to the
// ones-complement identity.
func TestIPChecksumProperty(t *testing.T) {
	f := func(a, b uint32, pl []byte) bool {
		if len(pl) > 64 {
			pl = pl[:64]
		}
		fr := BuildTCPFrame(a, b, 1, 2, 0, 0, TCPAck, pl)
		hdr := fr[EthHeaderLen : EthHeaderLen+IPHeaderLen]
		var sum uint32
		for i := 0; i+1 < len(hdr); i += 2 {
			sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
		}
		for sum>>16 != 0 {
			sum = sum&0xFFFF + sum>>16
		}
		return uint16(^sum) == 0 // includes the checksum field itself
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCameraFrames(t *testing.T) {
	clk := &mach.Clock{}
	c := NewCamera(clk, 1000)
	if c.Load(DcmiSR, 4) != 0 {
		t.Error("frame ready before capture")
	}
	c.Store(DcmiCR, 4, 1)
	if c.Load(DcmiSR, 4) != 0 {
		t.Error("frame ready during exposure")
	}
	clk.Advance(1000)
	if c.Load(DcmiSR, 4) != 1 {
		t.Fatal("frame never ready")
	}
	w0 := c.Load(DcmiFIFO, 4)
	w1 := c.Load(DcmiFIFO, 4)
	if w0 != PixelAt(1, 0) || w1 != PixelAt(1, 1) {
		t.Error("pixel stream not deterministic")
	}
}

func TestUSBMSC(t *testing.T) {
	clk := &mach.Clock{}
	u := NewUSBMSC(clk, 30)
	u.Store(UsbARG, 4, 9)
	u.Store(UsbFIFO, 4, 0x11223344)
	u.Store(UsbCMD, 4, 1)
	clk.Advance(30)
	if u.Load(UsbSTA, 4) != 1 {
		t.Error("USB never ready")
	}
	sec := u.Sectors[9]
	if len(sec) != 4 || sec[0] != 0x44 {
		t.Errorf("sector 9 = %v", sec)
	}
}

func TestRegsDevice(t *testing.T) {
	r := NewFlashIF()
	if r.Name() != "FLASHIF" || r.Base() != mach.FlashIF || r.Size() != 0x400 {
		t.Errorf("flash interface identity wrong: %s %#x %#x", r.Name(), r.Base(), r.Size())
	}
	r.Store(0x00, 4, 0x705)
	if r.Load(0x00, 4) != 0x705 {
		t.Error("register write lost")
	}
	if r.Load(0x04, 4) != 0 {
		t.Error("untouched register non-zero")
	}
}

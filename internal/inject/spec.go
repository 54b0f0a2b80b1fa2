// Package inject is the seeded fault-injection campaign engine: it
// enumerates a deterministic catalogue of adversarial perturbations
// against a compiled workload (generalizing the paper's §6.1
// KEY-overwrite to every operation × every foreign global/peripheral),
// replays each as one trial under OPEC or ACES, and classifies the
// outcome into a containment verdict. Campaigns are symbolic: every
// trial is described by a replayable Spec, so the same seed produces a
// byte-identical verdict table and any single trial can be re-run with
// `opec-run -inject <spec>`.
package inject

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind is a fault-catalogue entry.
type Kind uint8

const (
	// RogueStore models a compromised operation issuing an arbitrary
	// write to a foreign global or peripheral (the §6.1 payload).
	RogueStore Kind = iota
	// BitFlip models a soft error: one bit flipped in the operation's
	// own data section, bypassing protection (SEU, not an attacker).
	BitFlip
	// BadGate models a malformed supervisor call: a forged gate into a
	// non-entry function, or a real entry invoked with garbage
	// arguments.
	BadGate
	// StackExhaust models runaway recursion: the stack pointer is
	// dropped to just above the stack limit at operation entry.
	StackExhaust
	// PeriphCorrupt models peripheral register corruption (EMI/glitch):
	// a raw write into a device register block.
	PeriphCorrupt
	// FuzzFrame models a hostile network peer: the queued receive frame
	// at slot Off of device Target is replaced with attacker-controlled
	// bytes before the stack reads it. Value is the frame length in
	// bytes; Args carry the bytes packed little-endian, four per word —
	// so the standard colon syntax round-trips arbitrary frames and the
	// fuzzing engine's findings replay with `opec-run -replay`.
	FuzzFrame
	// FuzzFrames is FuzzFrame's multi-segment form: one trial rewrites
	// several queued frames at once — the accumulated hostile scenarios
	// coverage-guided search composes. Value is the segment count; Args
	// carry, per segment, the slot, the byte length, and then the bytes
	// packed little-endian, four per word.
	FuzzFrames
)

var kindNames = [...]string{"store", "flip", "gate", "stack", "periph", "frame", "frames"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Verdict classifies one trial's outcome.
type Verdict uint8

const (
	// Untriggered: the trigger point was never reached.
	Untriggered Verdict = iota
	// ContainedMPU: the perturbation was stopped by hardware — the
	// protection unit, the stack guard, or a CPU execution fault (e.g. a
	// corrupted code pointer taking a usage fault) — and the failure
	// stayed inside the domain.
	ContainedMPU
	// ContainedSanitize: corrupted state was caught by the monitor's
	// critical-variable sanitization at the operation switch.
	ContainedSanitize
	// ContainedGate: the monitor rejected the gate call itself.
	ContainedGate
	// Recovered: a recovery policy absorbed the failure and the
	// workload completed with its correctness check passing.
	Recovered
	// Benign: the perturbation fired but the workload still completed
	// and passed its correctness check.
	Benign
	// Corrupted: the workload completed but its correctness check
	// failed — silent data corruption, contained to functional state.
	Corrupted
	// Hung: the workload exceeded its cycle budget.
	Hung
	// Escaped: the perturbation landed outside the faulting domain —
	// the isolation mechanism failed to stop it.
	Escaped
	// CrashedMonitor: the trusted side itself failed (panic or an error
	// no taxonomy bucket explains).
	CrashedMonitor

	// NumVerdicts counts the verdict values above.
	NumVerdicts = int(CrashedMonitor) + 1
)

var verdictNames = [...]string{
	"untriggered", "contained-mpu", "contained-sanitize", "contained-gate",
	"recovered", "benign", "corrupted", "hung", "escaped", "crashed-monitor",
}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", v)
}

// Contained reports whether the verdict means the fault did not leave
// its domain (every value except Escaped and CrashedMonitor).
func (v Verdict) Contained() bool { return v != Escaped && v != CrashedMonitor }

// Spec is one replayable trial: fire Kind when function Func is entered
// for the N-th time, directed at Target.
type Spec struct {
	Kind Kind
	// Func is the trigger: the fault fires at the N-th entry (1-based)
	// of this function.
	Func string
	N    int
	// Target names the victim: a global (RogueStore/BitFlip), a
	// peripheral (RogueStore/PeriphCorrupt), or a function (BadGate).
	Target string
	Off    uint32 // byte offset into the victim
	Bit    int    // bit index for BitFlip
	Value  uint32 // stored value for RogueStore/PeriphCorrupt
	Args   []uint32
}

// String renders the spec in the colon-separated replay syntax accepted
// by ParseSpec and `opec-run -inject`:
//
//	kind:func:n:target:off:bit:value[:a1,a2,...]
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s:%d:%s:%d:%d:%#x", s.Kind, s.Func, s.N, s.Target, s.Off, s.Bit, s.Value)
	if len(s.Args) > 0 {
		b.WriteByte(':')
		for i, a := range s.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%#x", a)
		}
	}
	return b.String()
}

// FrameSpec builds a FuzzFrame spec carrying the given frame bytes,
// fired at the n-th entry of trigger and aimed at receive-queue slot
// `slot` of device target.
func FrameSpec(trigger string, n int, target string, slot int, frame []byte) Spec {
	args := make([]uint32, (len(frame)+3)/4)
	for i, b := range frame {
		args[i/4] |= uint32(b) << (8 * (i % 4))
	}
	return Spec{
		Kind: FuzzFrame, Func: trigger, N: n, Target: target,
		Off: uint32(slot), Value: uint32(len(frame)), Args: args,
	}
}

// FrameBytes decodes a FuzzFrame spec's payload. It fails when Value
// claims more bytes than Args carry — the one way the colon syntax can
// describe an undecodable frame.
func (s Spec) FrameBytes() ([]byte, error) {
	n := int(s.Value)
	if n < 0 || n > 4*len(s.Args) {
		return nil, fmt.Errorf("inject: frame spec claims %d bytes, args carry %d", n, 4*len(s.Args))
	}
	frame := make([]byte, n)
	for i := range frame {
		frame[i] = byte(s.Args[i/4] >> (8 * (i % 4)))
	}
	return frame, nil
}

// FrameSeg is one frame replacement within a FuzzFrames trial.
type FrameSeg struct {
	Slot int
	Data []byte
}

// MultiFrameSpec builds a FuzzFrames spec rewriting every given segment
// in one trial.
func MultiFrameSpec(trigger string, n int, target string, segs []FrameSeg) Spec {
	var args []uint32
	for _, seg := range segs {
		args = append(args, uint32(seg.Slot), uint32(len(seg.Data)))
		w := make([]uint32, (len(seg.Data)+3)/4)
		for i, b := range seg.Data {
			w[i/4] |= uint32(b) << (8 * (i % 4))
		}
		args = append(args, w...)
	}
	return Spec{
		Kind: FuzzFrames, Func: trigger, N: n, Target: target,
		Value: uint32(len(segs)), Args: args,
	}
}

// FrameSegs decodes a frame-fuzzing spec's payload — a single segment
// for FuzzFrame, the full list for FuzzFrames. It fails when the
// claimed lengths outrun Args.
func (s Spec) FrameSegs() ([]FrameSeg, error) {
	if s.Kind == FuzzFrame {
		data, err := s.FrameBytes()
		if err != nil {
			return nil, err
		}
		return []FrameSeg{{Slot: int(s.Off), Data: data}}, nil
	}
	args := s.Args
	var segs []FrameSeg
	for len(segs) < int(s.Value) {
		if len(args) < 2 {
			return nil, fmt.Errorf("inject: frames spec claims %d segments, args carry %d", s.Value, len(segs))
		}
		slot, n := int(args[0]), int(args[1])
		w := (n + 3) / 4
		if n < 0 || w < 0 || len(args) < 2+w {
			return nil, fmt.Errorf("inject: frames spec segment %d claims %d bytes, args carry %d words", len(segs), n, len(args)-2)
		}
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(args[2+i/4] >> (8 * (i % 4)))
		}
		segs = append(segs, FrameSeg{Slot: slot, Data: data})
		args = args[2+w:]
	}
	return segs, nil
}

// ParseSpec parses the replay syntax produced by Spec.String.
func ParseSpec(text string) (Spec, error) {
	parts := strings.Split(text, ":")
	if len(parts) != 7 && len(parts) != 8 {
		return Spec{}, fmt.Errorf("inject: spec %q: want kind:func:n:target:off:bit:value[:args]", text)
	}
	var s Spec
	kind := -1
	for i, n := range kindNames {
		if parts[0] == n {
			kind = i
		}
	}
	if kind < 0 {
		return Spec{}, fmt.Errorf("inject: spec %q: unknown kind %q", text, parts[0])
	}
	s.Kind = Kind(kind)
	s.Func = parts[1]
	n, err := strconv.Atoi(parts[2])
	if err != nil {
		return Spec{}, fmt.Errorf("inject: spec %q: bad trigger count: %w", text, err)
	}
	if n <= 0 {
		// Entry counts are 1-based; 0 or less would fire on the first
		// entry yet print as a different replay spec.
		return Spec{}, fmt.Errorf("inject: spec %q: trigger count %d: want the 1-based entry count, >= 1", text, n)
	}
	s.N = n
	s.Target = parts[3]
	off, err := strconv.ParseUint(parts[4], 0, 32)
	if err != nil {
		return Spec{}, fmt.Errorf("inject: spec %q: bad offset: %w", text, err)
	}
	s.Off = uint32(off)
	bit, err := strconv.Atoi(parts[5])
	if err != nil {
		return Spec{}, fmt.Errorf("inject: spec %q: bad bit: %w", text, err)
	}
	if s.Kind == BitFlip && (bit < 0 || bit > 7) {
		// A flip rewrites one byte; any other index would flip nothing.
		return Spec{}, fmt.Errorf("inject: spec %q: flip bit %d outside the flipped byte (want 0-7)", text, bit)
	}
	s.Bit = bit
	val, err := strconv.ParseUint(parts[6], 0, 32)
	if err != nil {
		return Spec{}, fmt.Errorf("inject: spec %q: bad value: %w", text, err)
	}
	s.Value = uint32(val)
	if len(parts) == 8 && parts[7] != "" {
		for _, f := range strings.Split(parts[7], ",") {
			a, err := strconv.ParseUint(f, 0, 32)
			if err != nil {
				return Spec{}, fmt.Errorf("inject: spec %q: bad argument %q: %w", text, f, err)
			}
			s.Args = append(s.Args, uint32(a))
		}
	}
	return s, nil
}

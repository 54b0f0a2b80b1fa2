package monitor

import "opec/internal/core"

// Snapshot is a checkpoint of the monitor's own runtime state — the
// recovery bookkeeping, operation context stack and stat counters that
// live beside the machine state a mach.Snapshot captures. The campaign
// forge pairs the two: restore the machine, then the monitor, and the
// pair is indistinguishable from a freshly booted run.
type Snapshot struct {
	stats       Stats
	cur         *core.Operation
	ctxs        []opContext // the live context stack, innermost last
	restarts    map[*core.Operation]int
	quarantined map[*core.Operation]bool
	srd         uint8
	rrNext      int
}

// Snapshot captures the monitor's runtime state. The context stack and
// recovery maps are deep-copied so trial execution cannot reach back
// into the checkpoint.
func (mon *Monitor) Snapshot() *Snapshot {
	return &Snapshot{
		stats:       mon.Stats,
		cur:         mon.cur,
		ctxs:        copyCtxs(mon.ctxs[:mon.depth]),
		restarts:    copyOpInts(mon.restarts),
		quarantined: copyOpBools(mon.quarantined),
		srd:         mon.srd,
		rrNext:      mon.rrNext,
	}
}

// Restore rewinds the monitor to the snapshot (deep-copying again into
// the pooled contexts, so one snapshot restores any number of trials).
// Trace attachment and span state are cleared — the caller re-attaches
// per trial, exactly as a fresh boot would.
func (mon *Monitor) Restore(s *Snapshot) {
	mon.Stats = s.stats
	mon.cur = s.cur
	for i := range s.ctxs {
		copyCtx(mon.ctxAt(i), &s.ctxs[i])
	}
	mon.depth = len(s.ctxs)
	mon.restarts = copyOpInts(s.restarts)
	mon.quarantined = copyOpBools(s.quarantined)
	mon.srd = s.srd
	mon.rrNext = s.rrNext
	mon.tr = nil
	mon.opNameIDs = nil
	mon.spanStart = 0
	mon.spanSync = 0
	mon.spanOpen = false
	mon.syncMute = false
}

func copyCtxs(stack []*opContext) []opContext {
	if len(stack) == 0 {
		return nil
	}
	out := make([]opContext, len(stack))
	for i, ctx := range stack {
		copyCtx(&out[i], ctx)
	}
	return out
}

// copyCtx deep-copies src into dst, reusing dst's storage; no slice of
// one aliases the other's.
func copyCtx(dst, src *opContext) {
	relocs, args := dst.relocs[:0], dst.args[:0]
	*dst = *src
	dst.relocs = relocs
	for _, rl := range src.relocs {
		rl.fixups = append([]ptrFixup(nil), rl.fixups...)
		dst.relocs = append(dst.relocs, rl)
	}
	dst.args = append(args, src.args...)
}

func copyOpInts(m map[*core.Operation]int) map[*core.Operation]int {
	if m == nil {
		return nil
	}
	out := make(map[*core.Operation]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyOpBools(m map[*core.Operation]bool) map[*core.Operation]bool {
	if m == nil {
		return nil
	}
	out := make(map[*core.Operation]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

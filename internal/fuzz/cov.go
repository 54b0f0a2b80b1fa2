package fuzz

import "opec/internal/trace"

// EdgeSpace is the size of the edge-identity space. Edge identities are
// folded into it AFL-style; 64K is large enough that the workloads' few
// thousand real edges collide rarely, and small enough that per-trial
// accounting stays cheap.
const EdgeSpace = 1 << 16

// numBuckets is the hit-count bucketing granularity. A deterministic
// embedded workload covers most of its edge set on every run — the
// binary "was this edge hit" signal saturates within a handful of
// inputs. What still separates inputs is how often each edge runs
// (parse-loop trips, frames accepted, retransmit paths), so coverage
// features are (edge, log-bucket of hit count) pairs, AFL's counting
// semantics.
const numBuckets = 8

// FeatureSpace is the total coverage-feature space: every edge crossed
// with every hit bucket.
const FeatureSpace = EdgeSpace * numBuckets

// CovSink folds a trial's event stream into per-edge hit counts. It
// attaches to the trial's trace buffer as a streaming handler, so it
// sees every event before ring drop accounting — coverage is exact even
// when the ring wraps.
//
// Edges are transition-sensitive (previous point chained into the
// current one, AFL's prev>>1 ^ cur), over four event families: per-block
// branch events (the bulk of the signal, emitted when the machine runs
// with CovEvents), call edges, gate entries and gate rejections.
// Everything hashed is an interned name id or a dense index, and
// AttachTrace pre-interns every module function in module order on each
// fork, so the same execution produces the same features in every
// trial, at any parallelism, under either backend.
//
// CovSink is a trace.Repeater, so a trial's device-poll loops are
// fast-forwarded (DESIGN.md §15) with the features unchanged.
type CovSink struct {
	prev    uint32
	hits    []uint8  // saturating per-edge hit counts
	touched []uint16 // distinct edges in first-hit order
}

// NewCovSink returns an empty sink for one trial.
func NewCovSink() *CovSink {
	return &CovSink{hits: make([]uint8, EdgeSpace)}
}

// Reset empties the sink for the next trial, as NewCovSink would, by
// clearing only the edges the last trial touched.
func (s *CovSink) Reset() {
	for _, e := range s.touched {
		s.hits[e] = 0
	}
	s.touched = s.touched[:0]
	s.prev = 0
}

// mix is a deterministic multiply-xor hash of one coverage point.
func mix(a, b uint32) uint32 {
	h := a*0x9E3779B1 ^ b*0x85EBCA77
	h ^= h >> 13
	h *= 0xC2B2AE35
	h ^= h >> 16
	return h
}

// point hashes one coverage point; ok is false for event kinds that
// carry no coverage.
func point(e trace.Event) (cur uint32, ok bool) {
	switch e.Kind {
	case trace.EvBranch:
		return mix(e.Arg, e.Arg2), true
	case trace.EvCall:
		return mix(e.Arg2, e.Arg) ^ 0xA5A5_A5A5, true
	case trace.EvGateEnter:
		return mix(e.Arg, uint32(e.Op)) ^ 0x5A5A_5A5A, true
	case trace.EvGateReject:
		return mix(e.Arg, e.Arg2) ^ 0x3C3C_3C3C, true
	}
	return 0, false
}

// HandleEvent implements trace.Handler.
func (s *CovSink) HandleEvent(e trace.Event) {
	if cur, ok := point(e); ok {
		s.cross(uint16((s.prev>>1)^cur), 1)
		s.prev = cur
	}
}

// cross records n more crossings of edge, saturating its hit count at
// 255; an edge's first crossing appends it to first-hit order.
func (s *CovSink) cross(edge uint16, n uint64) {
	h := uint64(s.hits[edge])
	if h == 0 {
		s.touched = append(s.touched, edge)
	}
	s.hits[edge] = uint8(min(h+n, 255))
}

// HandleRepeat implements trace.Repeater, folding k copies of window as
// k·len(window) HandleEvent calls would. Cycle stamps do not enter the
// features, so period does not matter. The first copy runs event by
// event, which keeps first-hit order. It leaves prev where every later
// copy starts too, so the other k-1 copies cross the same edges as one
// another, and each crossing adds k-1 hits. Their edges were all hit by
// the first copy when the window is the last stretch of the stream, as
// Buffer.Repeat hands it over; otherwise a new one joins first-hit
// order at its place in the second copy.
func (s *CovSink) HandleRepeat(window []trace.Event, k, _ uint64) {
	if k == 0 {
		return
	}
	for _, e := range window {
		s.HandleEvent(e)
	}
	if k == 1 {
		return
	}
	prev := s.prev
	for _, e := range window {
		if cur, ok := point(e); ok {
			s.cross(uint16((prev>>1)^cur), k-1)
			prev = cur
		}
	}
}

// bucket maps a hit count to its log-style bucket (AFL's 1, 2, 3, 4-7,
// 8-15, 16-31, 32-127, 128+).
func bucket(n uint8) uint32 {
	switch {
	case n == 1:
		return 0
	case n == 2:
		return 1
	case n == 3:
		return 2
	case n < 8:
		return 3
	case n < 16:
		return 4
	case n < 32:
		return 5
	case n < 128:
		return 6
	}
	return 7
}

// Features returns the trial's coverage features — one (edge, final
// hit bucket) pair per touched edge, in first-hit order.
func (s *CovSink) Features() []uint32 {
	out := make([]uint32, len(s.touched))
	for i, e := range s.touched {
		out[i] = uint32(e)*numBuckets + bucket(s.hits[e])
	}
	return out
}

// featureSet is the campaign-global accumulated coverage map. It is
// only touched single-threaded, between execution barriers, in
// input-index order — which is what makes "was this feature new" answer
// identically at every parallelism level.
type featureSet struct {
	bits  []uint64
	count int
}

func newFeatureSet() *featureSet { return &featureSet{bits: make([]uint64, FeatureSpace/64)} }

// addAll merges a trial's features and reports how many were new.
func (g *featureSet) addAll(features []uint32) int {
	fresh := 0
	for _, f := range features {
		if w, bit := f>>6, uint64(1)<<(f&63); g.bits[w]&bit == 0 {
			g.bits[w] |= bit
			fresh++
		}
	}
	g.count += fresh
	return fresh
}

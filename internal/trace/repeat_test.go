package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// tally is a Repeater whose closed form is arithmetic: it counts the
// events it is handed, sums their cycle stamps and keeps the last one.
type tally struct {
	n, cycles uint64
	last      Event
}

func (s *tally) HandleEvent(e Event) {
	s.n++
	s.cycles += e.Cycle
	s.last = e
}

func (s *tally) HandleRepeat(w []Event, k, period uint64) {
	var sum uint64
	for _, e := range w {
		sum += e.Cycle
	}
	n := uint64(len(w))
	s.n += k * n
	s.cycles += k*sum + n*period*k*(k+1)/2
	s.last = w[n-1]
	s.last.Cycle += k * period
}

// bufState is everything Repeat must leave as the Emit calls would.
type bufState struct {
	Events      []Event
	Emitted     uint64
	Dropped     uint64
	Regressions uint64
	LastCycle   uint64
	Sink        tally
}

func stateOf(b *Buffer, s *tally) bufState {
	return bufState{b.Events(), b.Emitted(), b.Dropped(), b.CycleRegressions(), b.lastCycle, *s}
}

// emitAll feeds events through Emit.
func emitAll(b *Buffer, evs []Event) {
	for _, e := range evs {
		b.Emit(e)
	}
}

// randomStream returns n events whose cycles mostly advance but
// sometimes step back, so regressions occur inside windows, across
// copies and against the high-water mark.
func randomStream(rng *rand.Rand, n int, start uint64) []Event {
	evs := make([]Event, n)
	c := start
	for i := range evs {
		switch rng.Intn(5) {
		case 0:
			if d := uint64(rng.Intn(6)); d <= c {
				c -= d
			}
		case 1:
		default:
			c += uint64(rng.Intn(4))
		}
		evs[i] = Event{Cycle: c, Kind: Kind(1 + rng.Intn(int(EvBranch))), Op: int32(rng.Intn(3)) - 1, Arg: uint32(rng.Intn(9)), Arg2: uint32(i), Dur: uint64(rng.Intn(2))}
	}
	return evs
}

// TestRepeatMatchesEmit compares Repeat against emitting the same k·n
// shifted events one by one, with k·n below, equal to and above the
// ring size, after prefixes that leave the ring partly filled, exactly
// full and wrapped.
func TestRepeatMatchesEmit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 3, 8} {
		for _, prefix := range []int{0, 1, capacity - 1, capacity, capacity + 2, 3*capacity + 1} {
			for n := 0; n <= capacity && n <= prefix; n++ {
				ks := []uint64{0, 1, 2, 3}
				if n > 0 {
					// Make k·n land just below, on and just above the ring size.
					c := uint64(capacity)
					ks = append(ks, c/uint64(n), (c+uint64(n)-1)/uint64(n), c/uint64(n)+1, 3*c)
				}
				for _, k := range ks {
					for _, period := range []uint64{0, 1, 7} {
						name := fmt.Sprintf("cap=%d prefix=%d n=%d k=%d period=%d", capacity, prefix, n, k, period)
						pre := randomStream(rng, prefix, uint64(rng.Intn(20)))
						fast, ref := NewBuffer(capacity), NewBuffer(capacity)
						fs, rs := &tally{}, &tally{}
						fast.Attach(fs)
						ref.Attach(rs)
						emitAll(fast, pre)
						emitAll(ref, pre)

						held := ref.Events()
						window := held[len(held)-n:]
						for j := uint64(1); j <= k; j++ {
							for _, e := range window {
								e.Cycle += j * period
								ref.Emit(e)
							}
						}
						if got := fast.Repeat(uint64(n), k, period); got != k {
							t.Fatalf("%s: Repeat recorded %d copies, want %d", name, got, k)
						}
						if got, want := stateOf(fast, fs), stateOf(ref, rs); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s:\nRepeat %+v\nEmit   %+v", name, got, want)
						}
						if got, want := fast.RenderText(), ref.RenderText(); got != want {
							t.Fatalf("%s: renders differ", name)
						}
					}
				}
			}
		}
	}
}

// TestRepeatRefuses checks the two refusals leave the buffer untouched:
// a handler that is not a Repeater, and a window the ring no longer (or
// never) held.
func TestRepeatRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pre := randomStream(rng, 6, 10)
	cases := []struct {
		name   string
		attach Handler
		n      uint64
	}{
		{"non-repeater handler", handlerFunc(func(Event) {}), 2},
		{"non-repeater handler, empty window", handlerFunc(func(Event) {}), 0},
		{"window beyond capacity", &tally{}, 5},
		{"window beyond emitted", nil, 7},
	}
	for _, c := range cases {
		capacity := 4
		if c.name == "window beyond emitted" {
			capacity = 16
		}
		b := NewBuffer(capacity)
		s := &tally{}
		b.Attach(s)
		if c.attach != nil {
			b.Attach(c.attach)
		}
		emitAll(b, pre)
		if _, ok := c.attach.(handlerFunc); b.Repeatable() == ok {
			t.Errorf("%s: Repeatable() = %v", c.name, b.Repeatable())
		}
		before := stateOf(b, s)
		if got := b.Repeat(c.n, 3, 5); got != 0 {
			t.Errorf("%s: Repeat recorded %d copies, want 0", c.name, got)
		}
		if after := stateOf(b, s); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: refused Repeat changed the buffer:\n%+v\n%+v", c.name, after, before)
		}
	}
	var nilBuf *Buffer
	if !nilBuf.Repeatable() || nilBuf.Repeat(3, 3, 3) != 3 {
		t.Error("nil buffer refused Repeat")
	}
}

// capped is a tally that admits at most limit copies of any window,
// and remembers the window and period it was last asked about.
type capped struct {
	tally
	limit  uint64
	asked  []Event
	period uint64
}

func (c *capped) RepeatLimit(w []Event, period uint64) uint64 {
	c.asked = append(c.asked[:0], w...)
	c.period = period
	return c.limit
}

// TestRepeatLimiters checks the Limiter contract: with limiters
// attached, Repeat records the minimum of k and their limits, and
// leaves the ring, the counts and every handler as that many rounds of
// n Emit calls would. A limit of 0 changes nothing.
func TestRepeatLimiters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, limits := range [][]uint64{{0}, {1}, {2, 5}, {5, 2}, {4, 0}, {100}} {
		for _, n := range []int{1, 3} {
			for _, k := range []uint64{0, 1, 3, 7} {
				name := fmt.Sprintf("limits=%v n=%d k=%d", limits, n, k)
				pre := randomStream(rng, 11, 5)
				const period = 4
				fast, ref := NewBuffer(8), NewBuffer(8)
				fs, rs := &tally{}, &tally{}
				fast.Attach(fs)
				ref.Attach(rs)
				var lims []*capped
				for _, l := range limits {
					c := &capped{limit: l}
					lims = append(lims, c)
					fast.Attach(c)
				}
				emitAll(fast, pre)
				emitAll(ref, pre)

				want := k
				for _, l := range limits {
					want = min(want, l)
				}
				window := ref.Events()[8-n:]
				for j := uint64(1); j <= want; j++ {
					for _, e := range window {
						e.Cycle += j * period
						ref.Emit(e)
					}
				}
				if got := fast.Repeat(uint64(n), k, period); got != want {
					t.Fatalf("%s: Repeat recorded %d copies, want %d", name, got, want)
				}
				if got, want := stateOf(fast, fs), stateOf(ref, rs); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\nRepeat %+v\nEmit   %+v", name, got, want)
				}
				for i, c := range lims {
					if c.tally != *rs {
						t.Fatalf("%s: limiter %d holds %+v, want %+v", name, i, c.tally, *rs)
					}
					if k > 0 && (!reflect.DeepEqual(c.asked, window) || c.period != period) {
						t.Fatalf("%s: limiter %d asked about %v period %d, want %v period %d",
							name, i, c.asked, c.period, window, period)
					}
				}
			}
		}
	}
}

// TestRepeatZeroAllocs pins that Repeat allocates nothing once its
// window scratch has grown, with a limiter attached too.
func TestRepeatZeroAllocs(t *testing.T) {
	b := NewBuffer(64)
	b.Attach(&tally{})
	b.Attach(&capped{limit: 6})
	for i := 0; i < 64; i++ {
		b.Emit(Event{Cycle: uint64(i), Kind: EvBranch})
	}
	b.Repeat(8, 10, 3)
	if n := testing.AllocsPerRun(1000, func() { b.Repeat(8, 10, 3) }); n != 0 {
		t.Errorf("Repeat allocates %v per call, want 0", n)
	}
}

// TestResetMatchesFresh runs a bus through one stream — recorded,
// repeated under a limiter, with a handler that needs every event
// attached last and a wrapped ring — resets it and feeds it a second
// stream, which must leave it exactly as a fresh bus with the same
// names interned. Reset, re-attaching and re-interning known names
// must allocate nothing.
func TestResetMatchesFresh(t *testing.T) {
	names := []string{"main", "Lock_Task", "KEY"}
	rng := rand.New(rand.NewSource(3))
	used := NewBuffer(8)
	for _, n := range names {
		used.Intern(n)
	}
	used.Attach(&tally{})
	used.Attach(&capped{limit: 2})
	emitAll(used, randomStream(rng, 11, 5))
	if got := used.Repeat(3, 5, 4); got != 2 {
		t.Fatalf("first stream: Repeat recorded %d copies, want the limiter's 2", got)
	}
	used.Attach(handlerFunc(func(Event) {}))
	emitAll(used, randomStream(rng, 4, 0))
	used.Reset()

	fresh := NewBuffer(8)
	for _, n := range names {
		fresh.Intern(n)
	}
	for i, n := range names {
		if got, want := used.Intern(n), fresh.Intern(n); got != want {
			t.Fatalf("name %d (%s): reset bus id %d, fresh bus id %d", i, n, got, want)
		}
	}
	us, fs := &tally{}, &tally{}
	used.Attach(us)
	fresh.Attach(fs)
	second := randomStream(rng, 13, 2)
	emitAll(used, second)
	emitAll(fresh, second)
	if got, want := used.Repeat(4, 3, 6), fresh.Repeat(4, 3, 6); got != want || got != 3 {
		t.Fatalf("second stream: Repeat recorded %d copies on the reset bus, %d on a fresh one, want 3", got, want)
	}
	emitAll(used, second[:5])
	emitAll(fresh, second[:5])
	if got, want := stateOf(used, us), stateOf(fresh, fs); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset bus %+v\nfresh bus %+v", got, want)
	}
	if got, want := used.RenderText(), fresh.RenderText(); got != want {
		t.Fatalf("renders differ:\n--- reset ---\n%s--- fresh ---\n%s", got, want)
	}
	if !reflect.DeepEqual(used.Names(), fresh.Names()) {
		t.Fatalf("name tables differ: %v vs %v", used.Names(), fresh.Names())
	}

	if n := testing.AllocsPerRun(100, func() {
		used.Reset()
		used.Attach(us)
		for _, n := range names {
			used.Intern(n)
		}
	}); n != 0 {
		t.Errorf("Reset, Attach and re-interning allocate %v per trial, want 0", n)
	}
}

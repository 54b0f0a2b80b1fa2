package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer's entry point,
// or a grouping of such calls: a request (one pipeline, trial, triage
// session or fuzz campaign) or a phase. Times are nanoseconds since the
// recorder's epoch. Name is "<layer>.<call>"; Tag refines it (scheme,
// verdict) without changing the layer.
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the part of a span name before the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory. A disabled recorder (the untraced
// run) records nothing: begin returns -1 and end ignores it.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int
	reqs  int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, epoch: time.Now()} }

// begin opens a span under the innermost open span, in its request.
func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	s := span{Name: name, Parent: -1, Start: int64(time.Since(r.epoch))}
	if n := len(r.open); n > 0 {
		s.Parent = r.open[n-1]
		s.Req = r.spans[s.Parent].Req
	}
	r.spans = append(r.spans, s)
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// request opens a span that starts a new request id.
func (r *recorder) request(name string) int {
	i := r.begin(name)
	if i >= 0 {
		r.reqs++
		r.spans[i].Req = r.reqs
	}
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	if i < 0 {
		return
	}
	if top := r.open[len(r.open)-1]; top != i {
		panic(fmt.Sprintf("layerbench: span %q closed while %q is open", r.spans[i].Name, r.spans[top].Name))
	}
	r.spans[i].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// tag sets span i's tag (a no-op when disabled).
func (r *recorder) tag(i int, tag string) {
	if i >= 0 {
		r.spans[i].Tag = tag
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover (overlapping children
// count once, time outside the parent not at all).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if lo < hi {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(kids[i])
	}
	return self
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, v := range iv {
		switch {
		case first || v[0] >= end:
			total += v[1] - v[0]
			end = v[1]
			first = false
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// subtree returns the indexes of root and every span below it.
func subtree(spans []span, root int) []int {
	in := map[int]bool{root: true}
	out := []int{root}
	for i := root + 1; i < len(spans); i++ {
		if in[spans[i].Parent] {
			in[i] = true
			out = append(out, i)
		}
	}
	return out
}

// selfByLayer sums the self times of root's subtree per layer. Request
// and phase spans carry the benchmark's own glue; their self time is
// reported under "other".
func selfByLayer(spans []span, root int) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, i := range subtree(spans, root) {
		l := spans[i].layer()
		if l == "request" || l == "phase" {
			l = "other"
		}
		out[l] += self[i]
	}
	return out
}

// checkSelfSum verifies that the self times of root's subtree add up to
// wall, the phase's independently measured wall time, within 0.5% (or
// 1 ms for very short phases).
func checkSelfSum(spans []span, root int, wall int64) error {
	var sum int64
	for _, v := range selfByLayer(spans, root) {
		sum += v
	}
	tol := max(wall/200, int64(time.Millisecond))
	if d := sum - wall; d > tol || -d > tol {
		return fmt.Errorf("span self times under %s sum to %v, the phase took %v", spans[root].Name,
			time.Duration(sum), time.Duration(wall))
	}
	return nil
}

// durations returns the durations in milliseconds of the spans named
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines to dir/file.
func writeSpans(dir, file string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

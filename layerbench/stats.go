package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs,
// interpolating linearly between the two closest ranks. It returns 0
// for an empty sample and does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := (float64(len(s)) - 1) * p / 100
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ledger counts the operations a run attempted and the ones whose
// output check failed. An operation is one app × scheme pipeline, one
// trial, one triage session or one fuzz campaign; each counts once,
// failed or not.
type ledger struct {
	attempted, failed int
	notes             []string
}

// maxNotes bounds the failure messages a run keeps for its report.
const maxNotes = 20

// op records one attempted operation: err is nil when every check on
// its output passed. It reports whether the operation passed.
func (l *ledger) op(err error) bool {
	l.attempted++
	if err == nil {
		return true
	}
	l.failed++
	if len(l.notes) < maxNotes {
		l.notes = append(l.notes, err.Error())
	}
	return false
}

// ratio is failed ÷ attempted, 0 before anything was attempted.
func (l *ledger) ratio() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

func (l *ledger) report(w io.Writer) {
	fmt.Fprintf(w, "# operations attempted=%d failed=%d fail_ratio=%g\n", l.attempted, l.failed, l.ratio())
	for _, n := range l.notes {
		fmt.Fprintf(w, "#   FAIL %s\n", n)
	}
}

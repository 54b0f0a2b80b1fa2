//go:build race

package run_test

// raceDetector reports whether the race detector instruments this test
// binary; single-threaded full-scale differentials skip under it.
const raceDetector = true

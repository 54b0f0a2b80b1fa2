package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The traced run takes a runtime/pprof CPU profile of its measured
// phase and folds each sample into one bucket by the package and
// receiver of its leaf function. The profile is gzipped protobuf
// (profile.proto); the few messages needed here are decoded by hand so
// the benchmark needs nothing outside the standard library.

// buckets lists the self-time buckets in report order.
var buckets = []string{
	"mach.dispatch", "mach.bus", "mach.mpu", "mach.snapshot", "monitor", "dev",
	"trace", "fuzz", "debug", "compile", "runtime", "other",
}

// frame is one stack frame: a function's qualified name and its file.
type frame struct{ fn, file string }

// sampleBucket folds one sample's stack, leaf first. A leaf in the
// standard library outside the runtime (hashing, formatting, sorting)
// counts for the nearest caller in this repository or the benchmark, so
// state digests count as snapshot work and event rendering as trace.
func sampleBucket(stack []frame) string {
	for _, f := range stack {
		if b := bucketOf(f); b != "other" || strings.HasPrefix(f.fn, "opec") || strings.HasPrefix(f.fn, "main.") {
			return b
		}
	}
	return "other"
}

// bucketOf maps a frame, such as "opec/internal/mach.(*Bus).Load", to
// its bucket: by package, and within the simulator by receiver, or by
// file for the snapshot and state-capture code.
func bucketOf(f frame) string {
	pkg, recv := splitFunc(f.fn)
	switch {
	case pkg == "opec/internal/mach":
		if base := path.Base(f.file); base == "snapshot.go" || base == "stateframe.go" {
			return "mach.snapshot"
		}
		switch recv {
		case "Bus", "pagedMem":
			return "mach.bus"
		case "MPU", "PMP", "Region", "AP":
			return "mach.mpu"
		}
		return "mach.dispatch"
	case pkg == "opec/internal/xlat":
		return "mach.dispatch"
	case pkg == "opec/internal/monitor", pkg == "opec/internal/aces":
		return "monitor"
	case pkg == "opec/internal/dev":
		return "dev"
	case pkg == "opec/internal/trace":
		return "trace"
	case pkg == "opec/internal/fuzz":
		return "fuzz"
	case pkg == "opec/internal/debug":
		return "debug"
	case pkg == "opec/internal/ir", pkg == "opec/internal/analysis", pkg == "opec/internal/core",
		pkg == "opec/internal/absint", pkg == "opec/internal/apps", pkg == "opec/internal/hal",
		pkg == "opec/internal/image":
		return "compile"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// splitFunc splits a function name into its package path and, for a
// method or a closure inside one, the receiver type name.
func splitFunc(fn string) (pkg, recv string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	pkg, rest := fn[:slash+1+dot], fn[slash+2+dot:]
	if strings.HasPrefix(rest, "(*") {
		if end := strings.IndexByte(rest, ')'); end > 0 {
			return pkg, rest[2:end]
		}
	}
	if r, _, ok := strings.Cut(rest, "."); ok {
		return pkg, r
	}
	return pkg, ""
}

// foldProfile decodes a gzipped CPU profile and returns the CPU time of
// each bucket (see sampleBucket), taking each frame's innermost inlined
// function.
func foldProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		types    []int64               // sample_type[i].type as a string index
		funcName = map[uint64]int64{}  // function id → name string index
		funcFile = map[uint64]int64{}  // function id → file string index
		leafFunc = map[uint64]uint64{} // location id → innermost function id
		samples  [][2][]uint64         // location ids, values
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var locs, vals []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&locs, v, b)
				case 2:
					return appendPacked(&vals, v, b)
				}
				return nil
			})
			samples = append(samples, [2][]uint64{locs, vals})
			return err
		case 4: // location
			var id, fnID uint64
			seenLine := false
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fnID = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fnID
			return err
		case 5: // function
			var id uint64
			var name, file int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcName[id], funcFile[id] = name, file
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; use the
	// nanoseconds column.
	col := -1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make(map[string]int64, len(buckets))
	var stack []frame
	for _, s := range samples {
		if col >= len(s[1]) {
			continue
		}
		stack = stack[:0]
		for _, loc := range s[0] {
			id := leafFunc[loc]
			stack = append(stack, frame{fn: str(funcName[id]), file: str(funcFile[id])})
		}
		out[sampleBucket(stack)] += int64(s[1][col])
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, handing fn the
// field number and either its varint value or its bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as
// one value or packed.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

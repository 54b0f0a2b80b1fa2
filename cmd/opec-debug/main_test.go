package main

import (
	"errors"
	"testing"
)

// fakeSymbols is a symbol table with one global and, optionally, a
// recorded fault.
type fakeSymbols struct{ fault bool }

func (f fakeSymbols) FaultCycle() (uint64, error) {
	if !f.fault {
		return 0, errors.New("debug: the recording has no fault")
	}
	return 60807, nil
}

func (fakeSymbols) ResolveGlobal(name string) (uint32, int, error) {
	if name != "KEY" {
		return 0, 0, errors.New(`debug: no global "` + name + `"`)
	}
	return 0x20000000, 4, nil
}

// TestArgumentErrors runs every numeric and symbolic argument parser on
// good and malformed input: errors name the query and the argument.
func TestArgumentErrors(t *testing.T) {
	syms := fakeSymbols{fault: true}
	cases := []struct {
		name    string
		got     parsed
		want    uint64
		wantLen int
		err     string
	}{
		{"seek cycle", cyc(seekCycle(syms, "1234")), 1234, 0, ""},
		{"seek hex cycle", cyc(seekCycle(syms, "0x10")), 16, 0, ""},
		{"seek fault", cyc(seekCycle(syms, "fault")), 60807, 0, ""},
		{"seek word", cyc(seekCycle(syms, "foo")), 0, 0, `seek: cycle "foo": want a number or 'fault'`},
		{"seek negative", cyc(seekCycle(syms, "-5")), 0, 0, `seek: cycle "-5": want a number or 'fault'`},
		{"seek fault without one", cyc(seekCycle(fakeSymbols{}, "fault")), 0, 0, "seek: fault: debug: the recording has no fault"},
		{"blame cycle", cyc(cycleArg("blame", "extra", "a number")), 0, 0, `blame: cycle "extra": want a number`},
		{"last-writer cycle", cyc(cycleArg("last-writer", "65000", "a number")), 65000, 0, ""},
		{"last-writer overflow", cyc(cycleArg("last-writer", "18446744073709551616", "a number")), 0, 0, `last-writer: cycle "18446744073709551616": want a number`},
		{"global", tgt(target(syms, "watch", "KEY")), 0x20000000, 4, ""},
		{"global with length", tgt(target(syms, "watch", "KEY:2")), 0x20000000, 2, ""},
		{"address", tgt(target(syms, "watch", "0x20000040")), 0x20000040, 1, ""},
		{"address with length", tgt(target(syms, "last-writer", "0X20000040:8")), 0x20000040, 8, ""},
		{"unknown global", tgt(target(syms, "watch", "NOPE")), 0, 0, `watch: target "NOPE": debug: no global "NOPE"`},
		{"bad length", tgt(target(syms, "watch", "KEY:x")), 0, 0, `watch: target "KEY:x": length "x": want a positive number`},
		{"zero length", tgt(target(syms, "last-writer", "KEY:0")), 0, 0, `last-writer: target "KEY:0": length "0": want a positive number`},
		{"bad address", tgt(target(syms, "watch", "0xzz")), 0, 0, `watch: target "0xzz": address "0xzz": want a 32-bit hex number`},
		{"address beyond 32 bits", tgt(target(syms, "watch", "0x100000000:4")), 0, 0, `watch: target "0x100000000:4": address "0x100000000": want a 32-bit hex number`},
		{"range past 32 bits", tgt(target(syms, "watch", "0xffffffff:8")), 0, 0, `watch: target "0xffffffff:8": range 0xffffffff+8 runs past 0xffffffff`},
		{"length past 32 bits", tgt(target(syms, "watch", "0x20000000:99999999999")), 0, 0, `watch: target "0x20000000:99999999999": range 0x20000000+99999999999 runs past 0xffffffff`},
		{"range ending at 32 bits", tgt(target(syms, "watch", "0xfffffffc:4")), 0xfffffffc, 4, ""},
	}
	for _, c := range cases {
		v, n, err := c.got.v, c.got.n, c.got.err
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.err != "" && (err == nil || err.Error() != c.err):
			t.Errorf("%s: error %v, want %q", c.name, err, c.err)
		case c.err == "" && (v != c.want || n != c.wantLen):
			t.Errorf("%s: got %#x/%d, want %#x/%d", c.name, v, n, c.want, c.wantLen)
		}
	}
}

// parsed is one parser's result; cyc and tgt adapt the two shapes.
type parsed struct {
	v   uint64
	n   int
	err error
}

func cyc(v uint64, err error) parsed { return parsed{v, 0, err} }

func tgt(a uint32, n int, err error) parsed { return parsed{uint64(a), n, err} }

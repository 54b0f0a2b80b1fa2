// Command opec-debug is the time-travel debugger: it records one run —
// clean, or any inject/fuzz finding named by its replay spec — with
// keyframe state checkpoints and an indexed trace store, then answers
// causal queries about it with deterministic output.
//
// Usage:
//
//	opec-debug -app PinLock -quick info
//	opec-debug -app PinLock -quick -policy restart -inject 'store:Lock_Task:1:KEY:0:-1:0xee' blame
//	opec-debug -app PinLock -quick -policy restart -inject 'store:Lock_Task:1:KEY:0:-1:0xee' seek fault
//	opec-debug -app PinLock -quick -policy restart -inject 'store:Lock_Task:1:KEY:0:-1:0xee' watch KEY
//	opec-debug -app PinLock -quick -policy restart -inject '...' last-writer KEY 20000
//	opec-debug -app PinLock -quick -policy restart -replay '<snapid>@<spec>' blame
//
// Commands:
//
//	info                        recording summary, keyframes, replay coordinate
//	coord                       print only the '<snapid>@<spec>' replay coordinate
//	keyframes                   list the held keyframe checkpoints
//	seek <cycle|fault>          re-execute to a cycle (or the first fault), verifying
//	                            the keyframe digest and the regenerated trace suffix
//	watch <target>[:<len>]      every write attempt on the range (-from/-to bound cycles)
//	last-writer <target> <cyc>  backward slice: who produced the value held at <cyc>
//	blame [cycle]               walk a fault back to the rogue store that caused it
//
// A <target> is a global name ("KEY") or a hex address ("0x20000040"),
// optionally suffixed with a byte length (":4"; globals default to
// their own size, addresses to 1).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"opec"
)

func main() {
	appName := flag.String("app", "", "workload name")
	quick := flag.Bool("quick", false, "use the Quick-scale workload variant (shrunk rounds, as in tests/CI)")
	injectSpec := flag.String("inject", "", "debug one fault-injection trial (kind:func:n:target:off:bit:value[:args])")
	replaySpec := flag.String("replay", "", "debug one fork-engine finding from '<snapshot-id>@<spec>'")
	policy := flag.String("policy", "abort", "recovery policy under -inject/-replay: abort | restart | quarantine")
	maxCycles := flag.Uint64("max-cycles", 0, "cycle budget (0 = the workload's own); replaying a hung finding needs its campaign budget")
	keyEvery := flag.Uint64("keyframe-every", 0, "cycles between periodic keyframes (0 = default)")
	maxKeys := flag.Int("max-keyframes", 0, "held keyframes before decimation (0 = default)")
	traceCap := flag.Int("trace-cap", 0, "recording ring capacity (0 = default; the indexed store is complete either way)")
	from := flag.Uint64("from", 0, "watch: first cycle of the reported range")
	to := flag.Uint64("to", 0, "watch: last cycle of the reported range (0 = end of run)")
	counters := flag.Bool("counters", false, "print the debug_* counter snapshot after the query")
	flag.Parse()

	if *appName == "" {
		fmt.Fprintln(os.Stderr, "opec-debug: -app is required")
		os.Exit(2)
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "opec-debug: no command (want info | coord | keyframes | seek | watch | last-writer | blame)")
		os.Exit(2)
	}
	app, err := opec.AppByName(*appName)
	fail(err)
	if *quick {
		app = nil
		for _, a := range opec.QuickApps() {
			if a.Name == *appName {
				app = a
			}
		}
		if app == nil {
			fail(fmt.Errorf("no quick-scale variant of %q", *appName))
		}
	}

	cfg := opec.DebugConfig{
		App:           app,
		MaxCycles:     *maxCycles,
		KeyframeEvery: *keyEvery,
		MaxKeyframes:  *maxKeys,
		TraceCap:      *traceCap,
	}
	cfg.Policy, err = opec.ParsePolicy(*policy)
	fail(err)

	switch {
	case *injectSpec != "" && *replaySpec != "":
		fail(fmt.Errorf("-inject and -replay are mutually exclusive"))
	case *injectSpec != "":
		spec, err := opec.ParseInjectSpec(*injectSpec)
		fail(err)
		cfg.Spec = &spec
	case *replaySpec != "":
		id, specText, ok := strings.Cut(*replaySpec, "@")
		if !ok || id == "" || specText == "" {
			fail(fmt.Errorf("-replay wants '<snapshot-id>@<spec>', got %q", *replaySpec))
		}
		spec, err := opec.ParseInjectSpec(specText)
		fail(err)
		cfg.Spec = &spec
		cfg.WantSnapID = id
	}

	s, err := opec.NewDebugSession(cfg)
	fail(err)

	var out string
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "info":
		out = s.Info()
	case "coord":
		if out = s.Coordinate(); out == "" {
			fail(fmt.Errorf("coord: clean runs have no replay coordinate (use -inject or -replay)"))
		}
		out += "\n"
	case "keyframes":
		out = s.Keyframes().Render()
	case "seek":
		if len(args) != 1 {
			fail(fmt.Errorf("seek wants one argument: a cycle number or 'fault'"))
		}
		c, err := seekCycle(s, args[0])
		fail(err)
		out, err = s.Seek(c)
		fail(err)
	case "watch":
		if len(args) != 1 {
			fail(fmt.Errorf("watch wants one argument: <global|0xaddr>[:<len>]"))
		}
		addr, n, err := target(s, cmd, args[0])
		fail(err)
		out, err = s.Watch(addr, n, *from, *to)
		fail(err)
	case "last-writer":
		if len(args) != 2 {
			fail(fmt.Errorf("last-writer wants two arguments: <global|0xaddr>[:<len>] <cycle>"))
		}
		addr, n, err := target(s, cmd, args[0])
		fail(err)
		c, err := cycleArg(cmd, args[1], "a number")
		fail(err)
		out, err = s.LastWriter(addr, n, c)
		fail(err)
	case "blame":
		var c uint64
		if len(args) == 1 {
			c, err = cycleArg(cmd, args[0], "a number")
			fail(err)
		} else if len(args) > 1 {
			fail(fmt.Errorf("blame wants at most one argument: a cycle number"))
		}
		out, err = s.Blame(c)
		fail(err)
	default:
		fail(fmt.Errorf("unknown command %q (want info | coord | keyframes | seek | watch | last-writer | blame)", cmd))
	}
	fmt.Print(out)

	if *counters {
		reg := &opec.CounterRegistry{}
		reg.Register(s)
		fmt.Printf("counters:\n%s", indent(opec.RenderTraceCounters(reg.Snapshot())))
	}
}

// symbols is the part of a debug session the argument parsers consult.
type symbols interface {
	FaultCycle() (uint64, error)
	ResolveGlobal(name string) (uint32, int, error)
}

// seekCycle resolves seek's argument: a cycle number, or 'fault' for
// the recording's first fault event.
func seekCycle(s symbols, arg string) (uint64, error) {
	if arg == "fault" {
		c, err := s.FaultCycle()
		if err != nil {
			return 0, fmt.Errorf("seek: fault: %w", err)
		}
		return c, nil
	}
	return cycleArg("seek", arg, "a number or 'fault'")
}

// cycleArg parses query's cycle argument; want describes what the
// query accepts.
func cycleArg(query, arg, want string) (uint64, error) {
	c, err := strconv.ParseUint(arg, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: cycle %q: want %s", query, arg, want)
	}
	return c, nil
}

// target parses query's <global|0xaddr>[:<len>] argument against the
// session's symbol table.
func target(s symbols, query, arg string) (uint32, int, error) {
	name, lenText, hasLen := strings.Cut(arg, ":")
	n := 0
	if hasLen {
		v, err := strconv.Atoi(lenText)
		if err != nil || v <= 0 {
			return 0, 0, fmt.Errorf("%s: target %q: length %q: want a positive number", query, arg, lenText)
		}
		n = v
	}
	var addr uint32
	if strings.HasPrefix(name, "0x") || strings.HasPrefix(name, "0X") {
		a, err := strconv.ParseUint(name, 0, 32)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: target %q: address %q: want a 32-bit hex number", query, arg, name)
		}
		addr = uint32(a)
		if n == 0 {
			n = 1
		}
	} else {
		a, size, err := s.ResolveGlobal(name)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: target %q: %w", query, arg, err)
		}
		addr = a
		if n == 0 {
			n = size
		}
	}
	if uint64(addr)+uint64(n) > 1<<32 {
		return 0, 0, fmt.Errorf("%s: target %q: range %#08x+%d runs past 0xffffffff", query, arg, addr, n)
	}
	return addr, n, nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "    " + strings.Join(lines, "\n    ") + "\n"
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "opec-debug:", err)
		os.Exit(1)
	}
}

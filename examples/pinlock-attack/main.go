// PinLock attack: the Section 6.1 case study end to end. A compromised
// Lock_Task (via the buggy HAL_UART_Receive_IT) uses an arbitrary-write
// primitive to overwrite the stored KEY. Under ACES, region merging
// leaves KEY accessible and the attack lands; under OPEC, Lock_Task's
// operation data section has no shadow of KEY, and the MPU kills the
// write. A second act shows the sanitization defense: corrupting the
// critical lock_state aborts the program before the bad value can
// propagate across operations.
package main

import (
	"errors"
	"fmt"
	"log"

	"opec"
	"opec/internal/apps"
	"opec/internal/core"
	"opec/internal/ir"
	"opec/internal/mach"
	"opec/internal/run"
)

func main() {
	fmt.Println("== Act 1: arbitrary write to KEY (Section 6.1) ==")
	res, err := opec.PinLockCaseStudy()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under ACES (filename partitioning): KEY overwritten = %v\n", res.ACESKeyOverwritten)
	fmt.Printf("under OPEC: attack blocked = %v\n  fault: %s\n", res.OPECBlocked, res.OPECFault)

	fmt.Println("\n== Act 2: sanitization of a critical global (Section 5.3) ==")
	// Compromise do_unlock to drive lock_state outside its developer-
	// declared valid range [0,1] — e.g. a corrupted actuator command.
	inst := apps.PinLockN(1).New()
	b, err := core.Compile(inst.Mod, inst.Board, inst.Cfg)
	if err != nil {
		log.Fatal(err)
	}
	du := inst.Mod.MustFunc("do_unlock")
	du.Instructions(func(_ *ir.Block, in *ir.Instr) {
		if in.Op == ir.OpStore {
			if g, ok := in.Args[0].(*ir.Global); ok && g.Name == "lock_state" {
				in.Args[1] = ir.CI(7)
			}
		}
	})
	_, err = run.OPECWith(inst, b, run.Options{})
	if err == nil {
		log.Fatal("corrupted critical global was not caught")
	}
	fmt.Printf("monitor aborted the switch: %v\n", err)

	fmt.Println("(the public copy of lock_state keeps its last sane value; other operations never see 7)")

	fmt.Println("\n== Act 3: what the vanilla baseline does with the same bug ==")
	inst3 := apps.PinLockN(1).New()
	lt := inst3.Mod.MustFunc("Lock_Task")
	key := inst3.Mod.Global("KEY")
	attack := &ir.Instr{Op: ir.OpStore, Typ: ir.I8, Args: []ir.Value{key, ir.CI(0xEE)}}
	lt.Entry().Instrs = append([]*ir.Instr{attack}, lt.Entry().Instrs...)
	r3, err := run.Vanilla(inst3)
	if err != nil {
		// The attack may corrupt the run's own logic, but it is never
		// *blocked*.
		var f *mach.Fault
		if errors.As(err, &f) {
			log.Fatalf("vanilla unexpectedly faulted: %v", f)
		}
		fmt.Printf("vanilla run ended: %v\n", err)
		return
	}
	v := r3.Read("KEY", 0, 1)
	fmt.Printf("vanilla baseline: KEY silently overwritten to %#x — no isolation at all\n", v)
}

// Bank transfer: the paper's Fig. 3 data-consistency attack, live.
//
// A worker thread inside an enclave moves money from account A to account B
// one unit at a time. A malicious guest OS claims the threads are stopped
// and snapshots the enclave anyway. With a naive checkpoint (no two-phase
// checkpointing) the restored instance violates the invariant A+B = const;
// the paper's two-phase checkpointing refuses to dump until the enclave is
// provably quiescent, and a full migration preserves every unit of money.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/sim"
	"repro/internal/testapps"
)

const initBalance = 1_000_000

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== Part 1: the attack against a naive checkpoint ===")
	if err := naiveAttack(); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("=== Part 2: two-phase checkpointing defends ===")
	return defendedMigration()
}

func launchBank(w *sim.World) (*enclave.Runtime, error) {
	rt, err := w.Launch(w.Deploy(testapps.BankApp(2)), 0)
	if err != nil {
		return nil, err
	}
	if _, err := rt.ECall(0, testapps.BankInit, initBalance); err != nil {
		return nil, err
	}
	return rt, nil
}

func naiveAttack() error {
	for attempt := 0; attempt < 12; attempt++ {
		w, err := sim.NewWorld(2)
		if err != nil {
			return err
		}
		rt, err := launchBank(w)
		if err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() {
			_, err := rt.ECall(0, testapps.BankTransfer, 1, 50_000_000)
			done <- err
		}()
		// Wait until transfers are demonstrably in flight.
		if err := testapps.AwaitDebit(rt, initBalance); err != nil {
			return err
		}
		// The "OS" lies that the threads are stopped and dumps immediately.
		blob, err := attack.NaiveDump(rt)
		if err != nil {
			return err
		}
		inc, err := completeMigration(w, rt, blob)
		if err != nil {
			return err
		}
		res, err := inc.Runtime.ECall(0, testapps.BankSum)
		if err != nil {
			return err
		}
		<-done
		if res[0] != 2*initBalance {
			fmt.Printf("attempt %d: INVARIANT VIOLATED on the restored instance:\n", attempt+1)
			fmt.Printf("  A = %d, B = %d, A+B = %d (should be %d): %d units vanished\n",
				res[1], res[2], res[0], 2*initBalance, 2*initBalance-res[0])
			return nil
		}
		fmt.Printf("attempt %d: snapshot happened to be consistent; retrying\n", attempt+1)
	}
	return errors.New("the naive attack never hit the window (very unlikely)")
}

func defendedMigration() error {
	w, err := sim.NewWorld(2)
	if err != nil {
		return err
	}
	rt, err := launchBank(w)
	if err != nil {
		return err
	}
	const rounds = 200_000
	done := make(chan error, 1)
	go func() {
		_, err := rt.ECall(0, testapps.BankTransfer, 1, rounds)
		done <- err
	}()
	// Wait until the transfer is inside the enclave: one that has not
	// entered when the migration is requested is refused, not migrated.
	if err := testapps.AwaitDebit(rt, initBalance); err != nil {
		return err
	}

	// First, show the control thread refusing a non-quiescent dump.
	if err := attack.TwoPhaseDumpWithoutQuiescence(rt); err != nil {
		fmt.Printf("control thread refused the non-quiescent dump: %v\n", err)
	} else {
		return errors.New("control thread dumped while workers were running")
	}
	if err := core.Cancel(rt); err != nil {
		return err
	}

	// Then a full, defended migration mid-transfer.
	inc, err := sgxmig.Migrate(rt, w.Hosts[1], w.Registry, w.Opts())
	if err != nil {
		return err
	}
	<-done // the source-side caller lost its (self-destroyed) enclave

	for r := range inc.Results {
		if r.Err != nil {
			return r.Err
		}
	}
	res, err := inc.Runtime.ECall(0, testapps.BankSum)
	if err != nil {
		return err
	}
	fmt.Printf("after migration mid-transfer: A = %d, B = %d, A+B = %d\n", res[1], res[2], res[0])
	if res[0] != 2*initBalance {
		return errors.New("invariant violated — defence failed")
	}
	if res[1] != initBalance-rounds || res[2] != initBalance+rounds {
		return errors.New("transfer count wrong across migration")
	}
	fmt.Printf("invariant holds and all %d transfers completed exactly once\n", rounds)
	return nil
}

func completeMigration(w *sim.World, src *enclave.Runtime, blob []byte) (*core.Incoming, error) {
	t1, t2 := core.NewPipe()
	type result struct {
		inc *core.Incoming
		err error
	}
	in := make(chan result, 1)
	go func() {
		inc, err := core.MigrateIn(w.Hosts[1], w.Registry, t2, w.Opts())
		if err != nil {
			_ = t2.Close() // the source must not stream into a target that gave up
		}
		in <- result{inc, err}
	}()
	if _, err := core.MigrateOutPrepared(src, blob, t1, w.Opts()); err != nil {
		_ = t1.Close() // nor may the target wait for a source that gave up
		<-in
		return nil, err
	}
	r := <-in
	return r.inc, r.err
}

// Quickstart: build an enclave on machine A, run a computation inside it,
// live-migrate it mid-flight to machine B, and watch the computation finish
// there with its state intact — while machine A's instance self-destroys.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/enclave"
	"repro/internal/testapps"

	sgxmig "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The cloud: an attestation service, an enclave owner, two machines.
	service, err := sgxmig.NewAttestationService()
	if err != nil {
		return err
	}
	owner, err := sgxmig.NewOwner(service)
	if err != nil {
		return err
	}
	machineA, err := sgxmig.NewMachine(sgxmig.MachineConfig{Name: "machine-a", Quantum: 2000})
	if err != nil {
		return err
	}
	machineB, err := sgxmig.NewMachine(sgxmig.MachineConfig{Name: "machine-b", Quantum: 2000})
	if err != nil {
		return err
	}
	service.RegisterMachine(machineA.AttestationPublic())
	service.RegisterMachine(machineB.AttestationPublic())
	hostA, hostB := sgxmig.NewHost(machineA), sgxmig.NewHost(machineB)

	// An application: a counter whose entire state lives in enclave memory.
	app := testapps.CounterApp(2)
	rt, err := sgxmig.BuildEnclave(hostA, app, owner)
	if err != nil {
		return err
	}
	mr := rt.Measurement()
	fmt.Printf("built enclave %d on %s (MRENCLAVE %x...)\n",
		rt.EnclaveID(), machineA.Name(), mr[:8])

	// The image is deployed to every machine that may host it.
	reg := sgxmig.NewRegistry()
	reg.Add(sgxmig.NewDeployment(app, owner))

	// Start a long-running trusted computation.
	const iterations = 500000
	done := make(chan error, 1)
	go func() {
		_, err := rt.ECall(0, testapps.CounterRun, iterations)
		done <- err
	}()
	// Migrate once the call is inside the enclave: one that has not entered
	// when the migration is requested is refused, not migrated.
	if err := testapps.AwaitCount(rt); err != nil {
		return err
	}
	mid, err := rt.ECall(1, testapps.CounterGet)
	if err != nil {
		return err
	}
	fmt.Printf("computation in flight on %s: counter = %d / %d\n", machineA.Name(), mid[0], iterations)

	// Live-migrate the enclave to machine B.
	start := time.Now()
	inc, err := sgxmig.Migrate(rt, hostB, reg, &sgxmig.MigrationOptions{Service: service})
	if err != nil {
		return err
	}
	fmt.Printf("migrated to %s in %v (restore %v, verify %v)\n",
		machineB.Name(), time.Since(start), inc.RestoreTime, inc.VerifyTime)

	// The source instance self-destroyed (single-instance guarantee).
	if err := <-done; !errors.Is(err, enclave.ErrDestroyed) {
		return fmt.Errorf("expected the source ecall to die, got %v", err)
	}
	if _, err := rt.ECall(1, testapps.CounterGet); !errors.Is(err, enclave.ErrDestroyed) {
		return fmt.Errorf("source enclave still alive: %v", err)
	}
	fmt.Printf("source enclave on %s is dead: %v\n", machineA.Name(), enclave.ErrDestroyed)

	// The in-flight computation completes on the target.
	for r := range inc.Results {
		if r.Err != nil {
			return r.Err
		}
		fmt.Printf("in-flight ecall completed on %s: counter = %d\n", machineB.Name(), r.Regs[0])
	}
	final, err := inc.Runtime.ECall(1, testapps.CounterGet)
	if err != nil {
		return err
	}
	fmt.Printf("final state on %s: counter = %d (exactly %d: nothing lost, nothing repeated)\n",
		machineB.Name(), final[0], iterations)
	return nil
}

// Package testapps provides small enclave applications used across the test
// suites, examples and benchmarks: a resumable counter, a two-account bank
// (the paper's Fig. 3 consistency example), and an echo/ocall exerciser.
package testapps

import (
	"errors"

	"repro/internal/enclave"
)

// Counter selectors.
const (
	CounterRun = 0 // R1 = iterations; counts one per step; returns count in R0
	CounterGet = 1 // returns current count in R0
	CounterAdd = 2 // R1 = delta; adds once; returns new count
)

// CounterApp returns an app whose state is one count in heap memory,
// incremented one step at a time — the canonical interruptible/migratable
// computation. The count is kept as one heap word per worker, which only
// that worker's calls write, and read as their sum: workers counting at
// once never lose each other's steps, so a count is exact.
func CounterApp(workers int) *enclave.App {
	return &enclave.App{
		Name:        "counter",
		CodeVersion: "v1",
		Workers:     workers,
		HeapPages:   (8*workers + 4095) / 4096,
		ECalls: []enclave.ECallFn{
			counterRun,
			counterGet,
			counterAdd,
		},
	}
}

// counterWord is the address of the calling worker's word of the count.
func counterWord(c *enclave.Call) uint64 { return c.HeapBase() + 8*uint64(c.Tid()-1) }

// counterSum returns the count: the sum of every worker's word.
func counterSum(c *enclave.Call) (uint64, error) {
	var sum uint64
	for w := 0; w < c.Workers(); w++ {
		v, err := c.Load64(c.HeapBase() + 8*uint64(w))
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// counterBump adds delta to the calling worker's word.
func counterBump(c *enclave.Call, delta uint64) error {
	v, err := c.Load64(counterWord(c))
	if err != nil {
		return err
	}
	return c.Store64(counterWord(c), v+delta)
}

func counterRun(c *enclave.Call) enclave.AppStatus {
	// Registers: R1 = remaining iterations (counted down in the register
	// file so it survives AEX/migration).
	if c.PC == 0 {
		c.PC = 1 // argument captured; nothing else to initialise
	}
	if c.Regs[1] == 0 {
		return counterGet(c)
	}
	if err := counterBump(c, 1); err != nil {
		return enclave.AppAbort
	}
	c.Regs[1]--
	return enclave.AppRunning
}

func counterGet(c *enclave.Call) enclave.AppStatus {
	v, err := counterSum(c)
	if err != nil {
		return enclave.AppAbort
	}
	c.Regs[0] = v
	return enclave.AppDone
}

func counterAdd(c *enclave.Call) enclave.AppStatus {
	if err := counterBump(c, c.Regs[1]); err != nil {
		return enclave.AppAbort
	}
	return counterGet(c)
}

// AwaitCount returns once worker 1 of rt, a counter enclave, reads a
// nonzero count: a CounterRun started on another worker is inside the
// enclave, past the runtime's entry gate, so a migration requested from here
// on meets a busy worker instead of refusing the call. Where every worker
// runs a counting loop, worker 1 is usually held by its own loop's call; it
// returns then too, since that call is under way.
func AwaitCount(rt *enclave.Runtime) error {
	for {
		res, err := rt.ECall(1, CounterGet)
		if errors.Is(err, enclave.ErrWorkerBusy) {
			return nil
		}
		if err != nil || res[0] > 0 {
			return err
		}
	}
}

// Bank selectors (the Fig. 3 money-transfer example: the invariant is that
// account A + account B is constant).
const (
	BankInit     = 0 // R1 = initial balance for each account
	BankTransfer = 1 // R1 = amount, R2 = rounds; moves A->B one unit at a time
	BankSum      = 2 // returns A+B in R0, A in R1, B in R2
)

// BankApp returns the two-account bank used to demonstrate the data
// consistency attack and its defence. The two accounts deliberately live on
// pages far apart in the enclave so that a naive (non-quiescent) checkpoint
// walk has a wide window between reading A and reading B — the Fig. 3
// scenario.
func BankApp(workers int) *enclave.App {
	return &enclave.App{
		Name:        "bank",
		CodeVersion: "v1",
		Workers:     workers,
		HeapPages:   32,
		ECalls: []enclave.ECallFn{
			bankInit,
			bankTransfer,
			bankSum,
		},
	}
}

func bankAddrA(c *enclave.Call) uint64 { return c.HeapBase() }
func bankAddrB(c *enclave.Call) uint64 { return c.HeapBase() + c.HeapSize() - 4096 }

func bankInit(c *enclave.Call) enclave.AppStatus {
	if err := c.Store64(bankAddrA(c), c.Regs[1]); err != nil {
		return enclave.AppAbort
	}
	if err := c.Store64(bankAddrB(c), c.Regs[1]); err != nil {
		return enclave.AppAbort
	}
	return enclave.AppDone
}

// bankTransfer deliberately makes each unit transfer take two separate
// steps — debit A, then credit B — so that an ill-timed (naive) checkpoint
// between the steps captures an inconsistent state, exactly the paper's
// Fig. 3 scenario.
func bankTransfer(c *enclave.Call) enclave.AppStatus {
	const (
		phaseDebit  = 0
		phaseCredit = 1
	)
	if c.Regs[2] == 0 {
		return enclave.AppDone
	}
	switch c.PC {
	case phaseDebit:
		a, err := c.Load64(bankAddrA(c))
		if err != nil {
			return enclave.AppAbort
		}
		if err := c.Store64(bankAddrA(c), a-c.Regs[1]); err != nil {
			return enclave.AppAbort
		}
		c.PC = phaseCredit
	case phaseCredit:
		b, err := c.Load64(bankAddrB(c))
		if err != nil {
			return enclave.AppAbort
		}
		if err := c.Store64(bankAddrB(c), b+c.Regs[1]); err != nil {
			return enclave.AppAbort
		}
		c.PC = phaseDebit
		c.Regs[2]--
	}
	return enclave.AppRunning
}

func bankSum(c *enclave.Call) enclave.AppStatus {
	a, err := c.Load64(bankAddrA(c))
	if err != nil {
		return enclave.AppAbort
	}
	b, err := c.Load64(bankAddrB(c))
	if err != nil {
		return enclave.AppAbort
	}
	c.Regs[0] = a + b
	c.Regs[1] = a
	c.Regs[2] = b
	return enclave.AppDone
}

// AwaitDebit returns once worker 1 of rt, a bank enclave whose accounts
// started at balance, reads account A debited: a BankTransfer started on
// another worker is inside the enclave, past the runtime's entry gate.
func AwaitDebit(rt *enclave.Runtime, balance uint64) error {
	for {
		res, err := rt.ECall(1, BankSum)
		if err != nil || res[1] != balance {
			return err
		}
	}
}

// Echo selectors.
const (
	EchoOCall = 0 // performs one ocall with R1 and returns the result
)

// EchoApp exercises the ocall round trip: the ecall asks the untrusted host
// to transform a value and returns the answer.
func EchoApp(handler enclave.OCallFn) *enclave.App {
	return &enclave.App{
		Name:        "echo",
		CodeVersion: "v1",
		Workers:     1,
		HeapPages:   1,
		OCall:       handler,
		ECalls:      []enclave.ECallFn{echoOCall},
	}
}

func echoOCall(c *enclave.Call) enclave.AppStatus {
	const (
		phaseCall = 0
		phaseDone = 1
	)
	switch c.PC {
	case phaseCall:
		c.OCallID = 7
		c.OCallArg = c.Regs[1]
		c.OCallLen = 0
		c.PC = phaseDone
		return enclave.AppOCall
	default:
		// Back from the ocall: R0 = result, R1 = error flag.
		if c.Regs[1] != 0 {
			return enclave.AppAbort
		}
		return enclave.AppDone
	}
}

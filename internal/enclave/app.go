package enclave

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/sgx"
	"repro/internal/tcb"
)

// AppStatus is the outcome of one application step inside the enclave.
type AppStatus int

// Application step outcomes.
const (
	// AppRunning: more steps follow; the thread remains interruptible.
	AppRunning AppStatus = iota + 1
	// AppDone: the ecall is finished; R0..R5 are the results.
	AppDone
	// AppOCall: the ecall needs an untrusted call; the SDK parks the
	// continuation in the thread's TLS page and EEXITs. Set OCallID/
	// OCallArg/OCallLen on the Call first.
	AppOCall
	// AppAbort kills the enclave thread (models an in-enclave fault).
	AppAbort
)

// ECallFn is one trusted entry point of an application. It is a *step
// function*: each invocation must perform a bounded amount of work and keep
// every piece of mutable state in enclave memory (via Call's Load/Store) or
// in the register file (Call.Regs) and program counter (Call.PC). The SDK
// and the simulated hardware may interrupt the thread between any two steps,
// save (PC, Regs) to the SSA, migrate the enclave, and resume on another
// machine.
type ECallFn func(c *Call) AppStatus

// OCallFn is the untrusted ocall dispatcher of an application, executed by
// the runtime outside the enclave. id/arg/len come from the enclave; the
// payload region of the shared buffer may be read and written.
type OCallFn func(rt *Runtime, id, arg, length uint64) (uint64, error)

// App describes an enclave application. The SDK turns it into a measured
// image with the control thread, flags and stubs injected — developers
// "write code running in an enclave without awareness of our mechanism for
// migration" (paper Sec. I).
type App struct {
	// Name and CodeVersion identify the trusted code; they are folded into
	// MRENCLAVE (the simulator cannot hash Go function bodies, so identity
	// is asserted by version — a documented substitution).
	Name        string
	CodeVersion string

	// ECalls are the application entry points; the selector is the index.
	ECalls []ECallFn
	// OCall handles untrusted calls (may be nil).
	OCall OCallFn

	// InitData is copied into the data region at build time (measured).
	InitData []byte
	// DataPages/HeapPages size the regions; DataPages must fit InitData.
	DataPages int
	HeapPages int

	// Workers is the number of worker threads (the control thread is extra).
	Workers int
	// NSSA is the number of SSA frames per thread (default 2).
	NSSA int

	// EnclavePublic is the application owner's public key embedded in the
	// image in plaintext (paper Sec. V-B: "We put a pair of keys into the
	// enclave image. The public key is in plaintext while the private key
	// is in ciphertext."). The private half arrives via owner provisioning
	// after remote attestation.
	EnclavePublic tcb.PublicKey
	// ServicePublic is the attestation service's public key, embedded so
	// in-enclave code can verify attestation verdicts without trusting the
	// host that relays them.
	ServicePublic tcb.PublicKey

	// AgentMeasurement, if non-zero, is the measurement of the developer's
	// agent enclave (paper Sec. VI-D): the source control thread will
	// accept it as a key-transfer peer, and the target control thread will
	// accept Kmigrate from it over local attestation.
	AgentMeasurement [32]byte

	// DisableMigrationStubs removes the entry/exit stub work (flag
	// maintenance, CSSA recording). Used only for the Fig. 9(b) overhead
	// ablation; such an enclave cannot be migrated.
	DisableMigrationStubs bool
}

// Layout returns the memory map an SDK build of the app gets.
func (a *App) Layout() Layout {
	// A worker interrupted mid-ecall parks in the handler at CSSA 1; the
	// checkpoint then records a rebuild target of 2, and re-entering the
	// handler on the target at CSSA 2 needs a third frame.
	nssa := a.NSSA
	if nssa == 0 {
		nssa = 3
	}
	return Layout{
		Threads:   a.Workers + 1,
		NSSA:      nssa,
		DataPages: a.DataPages,
		HeapPages: a.HeapPages,
	}
}

func (a *App) validate() error {
	if a.Name == "" {
		return fmt.Errorf("enclave: app needs a name")
	}
	if len(a.ECalls) == 0 {
		return fmt.Errorf("enclave: app %q has no ecalls", a.Name)
	}
	if len(a.ECalls) >= int(SelHandler) {
		return fmt.Errorf("enclave: app %q has too many ecalls", a.Name)
	}
	if a.Workers < 1 {
		return fmt.Errorf("enclave: app %q needs at least one worker", a.Name)
	}
	if need := (len(a.InitData) + sgx.PageSize - 1) / sgx.PageSize; a.DataPages < need {
		return fmt.Errorf("enclave: app %q: %d data pages cannot hold %d bytes of init data", a.Name, a.DataPages, len(a.InitData))
	}
	return a.Layout().validate()
}

// codeHash computes the code-identity portion of the measurement.
func (a *App) codeHash() [32]byte {
	h := sha256.New()
	h.Write([]byte("sgxmig-sdk-v1"))
	h.Write([]byte(a.Name))
	h.Write([]byte{0})
	h.Write([]byte(a.CodeVersion))
	h.Write([]byte{0})
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(a.ECalls)))
	h.Write(n[:])
	h.Write(a.EnclavePublic[:])
	h.Write(a.ServicePublic[:])
	h.Write(a.AgentMeasurement[:])
	if a.DisableMigrationStubs {
		h.Write([]byte("nostubs"))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Call is the trusted-side view an ECallFn gets: the register file, an
// application-relative program counter, enclave memory access and ocall
// plumbing. It wraps the hardware Env with the SDK's layout knowledge.
type Call struct {
	// Regs is the register file (R0..R5 arguments/results; R6, R7 are
	// reserved by the SDK stubs).
	Regs *[sgx.NumRegs]uint64
	// PC is the application's persistent program counter; step functions
	// use it to resume control flow after AEX/migration.
	PC uint64

	// OCallID/OCallArg/OCallLen parameterise an AppOCall return.
	OCallID  uint64
	OCallArg uint64
	OCallLen uint64

	env    *sgx.Env
	layout Layout
	app    *App
	tid    int
}

// AppEnclavePublic returns the owner public key embedded in the measured
// image (trusted code reading its own configuration).
func (c *Call) AppEnclavePublic() (tcb.PublicKey, error) { return c.app.EnclavePublic, nil }

// AppServicePublic returns the embedded attestation-service key.
func (c *Call) AppServicePublic() tcb.PublicKey { return c.app.ServicePublic }

// AppSigner returns this enclave's MRSIGNER.
func (c *Call) AppSigner() [32]byte { return c.env.Signer() }

// Tid returns the worker thread id (1-based; 0 is the control thread).
func (c *Call) Tid() int { return c.tid }

// Workers returns how many worker threads the enclave has (thread ids 1 to
// Workers).
func (c *Call) Workers() int { return c.app.Workers }

// DataBase returns the byte address of the application data region.
func (c *Call) DataBase() uint64 { return sgx.Address(c.layout.DataBase(), 0) }

// HeapBase returns the byte address of the heap region.
func (c *Call) HeapBase() uint64 { return sgx.Address(c.layout.HeapBase(), 0) }

// HeapSize returns the heap size in bytes.
func (c *Call) HeapSize() uint64 { return uint64(c.layout.HeapPages) * sgx.PageSize }

// Load reads enclave memory.
func (c *Call) Load(addr uint64, b []byte) error { return c.env.Load(addr, b) }

// Store writes enclave memory.
func (c *Call) Store(addr uint64, b []byte) error { return c.env.Store(addr, b) }

// Load64 reads a uint64 from enclave memory.
func (c *Call) Load64(addr uint64) (uint64, error) { return c.env.Load64(addr) }

// Store64 writes a uint64 to enclave memory.
func (c *Call) Store64(addr uint64, v uint64) error { return c.env.Store64(addr, v) }

// OutsideLoad reads the untrusted shared region (validated, untrusted data).
func (c *Call) OutsideLoad(off uint64, b []byte) error { return c.env.OutsideLoad(off, b) }

// OutsideStore writes the untrusted shared region.
func (c *Call) OutsideStore(off uint64, b []byte) error { return c.env.OutsideStore(off, b) }

// ReadRandom fills b with hardware randomness.
func (c *Call) ReadRandom(b []byte) error { return c.env.ReadRandom(b) }

// Measurement returns the enclave's own MRENCLAVE.
func (c *Call) Measurement() [32]byte { return c.env.Measurement() }

// EReport produces a local-attestation report for a target enclave.
func (c *Call) EReport(target [32]byte, data sgx.ReportData) sgx.Report {
	return c.env.EReport(target, data)
}

// VerifyReport verifies a report targeted at this enclave.
func (c *Call) VerifyReport(r sgx.Report) bool { return c.env.VerifyReport(r) }

// SealKey returns the enclave's machine-bound sealing key.
func (c *Call) SealKey() tcb.Key { return c.env.EGetKey(sgx.KeySealMRENCLAVE) }

// EPutKey executes the proposed EPUTKEY instruction (paper Sec. VII-B),
// installing a shared migration key into the CPU. The hardware only accepts
// it from the platform's registered control enclave.
func (c *Call) EPutKey(key tcb.Key) error { return c.env.EPutKey(key) }

// Package sgxmig is a Go reproduction of "Secure Live Migration of SGX
// Enclaves on Untrusted Cloud" (Gu et al., DSN 2017): secure live migration
// of SGX enclaves — and of whole VMs containing them — between untrusted
// machines, implemented over a faithful functional simulator of the SGX
// hardware surface.
//
// The package is a facade over the implementation packages:
//
//   - internal/sgx      — the SGX hardware simulator (EPC/EPCM, TCS/SSA/CSSA,
//     EENTER/EEXIT/AEX/ERESUME, EWB/ELDU, EREPORT/EGETKEY, quotes)
//   - internal/enclave  — the SDK and untrusted runtime (control thread,
//     two-phase checkpointing stubs, in-enclave CSSA tracking)
//   - internal/attest   — the attestation service ecosystem
//   - internal/core     — the migration protocol (the paper's contribution)
//   - internal/vmm      — hypervisor, guest OS and live VM migration
//   - internal/workload — the paper's benchmark workloads
//   - internal/hwext    — the proposed hardware extension (Sec. VII-B)
//
// Quickstart:
//
//	service, _ := sgxmig.NewAttestationService()
//	owner, _ := sgxmig.NewOwner(service)
//	machineA, _ := sgxmig.NewMachine(sgxmig.MachineConfig{Name: "a"})
//	machineB, _ := sgxmig.NewMachine(sgxmig.MachineConfig{Name: "b"})
//	service.RegisterMachine(machineA.AttestationPublic())
//	service.RegisterMachine(machineB.AttestationPublic())
//	... build an App, Provision it, and Migrate it — see examples/quickstart.
package sgxmig

import (
	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/tcb"
	"repro/internal/vmm"
)

// Re-exported hardware types.
type (
	// Machine is a simulated SGX-capable physical machine.
	Machine = sgx.Machine
	// MachineConfig configures a machine.
	MachineConfig = sgx.Config
	// EnclaveID identifies a live enclave on one machine.
	EnclaveID = sgx.EnclaveID
	// Quote is a remote-attestation statement.
	Quote = sgx.Quote
	// Report is a local-attestation report.
	Report = sgx.Report
)

// Re-exported SDK types.
type (
	// App describes an enclave application (trusted step functions plus
	// sizing and embedded keys).
	App = enclave.App
	// Call is the trusted-side view an ecall step function receives.
	Call = enclave.Call
	// ECallFn is a trusted entry point.
	ECallFn = enclave.ECallFn
	// AppStatus is a step outcome.
	AppStatus = enclave.AppStatus
	// Runtime is the untrusted host runtime of one enclave.
	Runtime = enclave.Runtime
	// Host is the platform (EPC manager + fault dispatcher) of a machine.
	Host = enclave.Host
)

// Step outcomes.
const (
	AppRunning = enclave.AppRunning
	AppDone    = enclave.AppDone
	AppOCall   = enclave.AppOCall
	AppAbort   = enclave.AppAbort
)

// Re-exported attestation and migration types.
type (
	// AttestationService is the IAS-like verifier.
	AttestationService = attest.Service
	// Owner is the enclave owner (image signing, provisioning, audit).
	Owner = core.Owner
	// Deployment is a distributable (App, SIGSTRUCT) bundle.
	Deployment = core.Deployment
	// Registry maps image names to deployments on a host.
	Registry = core.Registry
	// MigrationOptions configures migrations.
	MigrationOptions = core.Options
	// SourceReport carries source-side migration metrics.
	SourceReport = core.SourceReport
	// Incoming is the result of a target-side migration.
	Incoming = core.Incoming
	// Transport moves migration protocol messages.
	Transport = core.Transport
	// AgentSession manages a Sec. VI-D agent enclave.
	AgentSession = core.AgentSession
	// CheckpointCipher selects rc4/des/aes-gcm checkpoint encryption.
	CheckpointCipher = tcb.CheckpointCipher
)

// Checkpoint ciphers.
const (
	CipherAESGCM = tcb.CipherAESGCM
	CipherRC4    = tcb.CipherRC4
	CipherDES    = tcb.CipherDES
)

// Re-exported VM types.
type (
	// Node is a physical machine hosting VMs.
	Node = vmm.Node
	// NodeConfig sizes a node.
	NodeConfig = vmm.NodeConfig
	// VM is a guest virtual machine.
	VM = vmm.VM
	// VMConfig sizes a VM.
	VMConfig = vmm.VMConfig
	// LiveMigrationConfig parameterises a VM live migration.
	LiveMigrationConfig = vmm.LiveMigrationConfig
	// LiveMigrationStats are the Fig. 10 metrics.
	LiveMigrationStats = vmm.LiveMigrationStats
	// WorkloadFunc drives one enclave worker from a guest process.
	WorkloadFunc = vmm.WorkloadFunc
)

// NewMachine boots a simulated SGX machine.
func NewMachine(cfg MachineConfig) (*Machine, error) { return sgx.NewMachine(cfg) }

// NewHost prepares a machine to build and host enclaves.
func NewHost(m *Machine) *Host { return enclave.NewBareHost(m) }

// NewAttestationService creates the IAS-like service.
func NewAttestationService() (*AttestationService, error) { return attest.NewService() }

// NewOwner creates an enclave owner registered with the service.
func NewOwner(service *AttestationService) (*Owner, error) { return core.NewOwner(service) }

// BuildEnclave constructs, measures, initialises and provisions an enclave
// for an owner-configured app.
func BuildEnclave(host *Host, app *App, owner *Owner) (*Runtime, error) {
	owner.ConfigureApp(app)
	rt, err := enclave.Build(host, app, owner.Signer())
	if err != nil {
		return nil, err
	}
	if err := owner.Provision(rt); err != nil {
		_ = rt.Destroy()
		return nil, err
	}
	return rt, nil
}

// NewDeployment prepares the distributable image bundle for an
// owner-configured app.
func NewDeployment(app *App, owner *Owner) *Deployment { return core.NewDeployment(app, owner) }

// NewRegistry creates an empty deployment registry.
func NewRegistry() *Registry { return core.NewRegistry() }

// NewPipe creates an in-process migration transport pair.
func NewPipe() (Transport, Transport) { return core.NewPipe() }

// MigrateOut runs the source side of an enclave migration.
func MigrateOut(src *Runtime, t Transport, opts *MigrationOptions) (SourceReport, error) {
	return core.MigrateOut(src, t, opts)
}

// MigrateIn runs the target side of an enclave migration.
func MigrateIn(host *Host, reg *Registry, t Transport, opts *MigrationOptions) (*Incoming, error) {
	return core.MigrateIn(host, reg, t, opts)
}

// Migrate runs a complete in-process migration between two hosts and
// returns the live target runtime. It returns once both halves have, so a
// failed migration leaves no enclave built on the target.
func Migrate(src *Runtime, dstHost *Host, reg *Registry, opts *MigrationOptions) (*Incoming, error) {
	t1, t2 := core.NewPipe()
	type result struct {
		inc *Incoming
		err error
	}
	ch := make(chan result, 1)
	go func() {
		inc, err := core.MigrateIn(dstHost, reg, t2, opts)
		if err != nil {
			_ = t2.Close() // the source must not stream into a target that gave up
		}
		ch <- result{inc, err}
	}()
	if _, err := core.MigrateOut(src, t1, opts); err != nil {
		_ = t1.Close() // nor may the target wait for a source that gave up
		<-ch
		return nil, err
	}
	r := <-ch
	return r.inc, r.err
}

// OwnerCheckpoint takes an audited, owner-keyed snapshot (Sec. V-C).
func OwnerCheckpoint(o *Owner, rt *Runtime) ([]byte, error) { return core.OwnerCheckpoint(o, rt) }

// OwnerResume restores an owner-keyed snapshot into a fresh enclave.
func OwnerResume(o *Owner, host *Host, dep *Deployment, blob []byte) (*Incoming, error) {
	return core.OwnerResume(o, host, dep, blob)
}

// StartAgent deploys the Sec. VI-D agent enclave on a target host.
func StartAgent(host *Host, owner *Owner) (*AgentSession, error) {
	return core.StartAgent(host, owner)
}

// AgentMeasurement computes the agent enclave measurement an app should
// embed (App.AgentMeasurement) to enable the agent optimisation.
func AgentMeasurement(owner *Owner) [32]byte {
	return enclave.MeasureApp(core.NewAgentApp(owner))
}

// NewNode boots a physical machine for VM hosting.
func NewNode(cfg NodeConfig, service *AttestationService) (*Node, error) {
	return vmm.NewNode(cfg, service)
}

// ErrEnclavesLost is wrapped by LiveMigrate's error when the VM migrated but
// some enclave's restore failed after the VM resumed.
var ErrEnclavesLost = vmm.ErrEnclavesLost

// LiveMigrate live-migrates a VM (with its enclaves) to another node. A nil
// error means every enclave runs on the target. An error wrapping
// ErrEnclavesLost comes with the running target VM and its stats: the
// enclaves in LostEnclaves failed their restore after the VM resumed and
// are gone on both sides (never forked). Any other error returns no target
// VM; the source VM runs on.
func LiveMigrate(vm *VM, dst *Node, cfg *LiveMigrationConfig) (*VM, *LiveMigrationStats, error) {
	return vmm.LiveMigrate(vm, dst, cfg)
}

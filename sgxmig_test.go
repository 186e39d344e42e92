package sgxmig

import (
	"errors"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/hostproto"
	"repro/internal/testapps"
	"repro/internal/workload"
)

// world assembles the public-API objects the README quickstart uses.
func facadeWorld(t *testing.T) (*AttestationService, *Owner, *Host, *Host, *Machine, *Machine) {
	t.Helper()
	service, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewOwner(service)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := NewMachine(MachineConfig{Name: "fa", Quantum: 2000})
	if err != nil {
		t.Fatal(err)
	}
	mB, err := NewMachine(MachineConfig{Name: "fb", Quantum: 2000})
	if err != nil {
		t.Fatal(err)
	}
	service.RegisterMachine(mA.AttestationPublic())
	service.RegisterMachine(mB.AttestationPublic())
	return service, owner, NewHost(mA), NewHost(mB), mA, mB
}

// TestFacadeMigrate runs the README quickstart flow end-to-end through the
// public API only.
func TestFacadeMigrate(t *testing.T) {
	service, owner, hostA, hostB, _, _ := facadeWorld(t)
	app := testapps.CounterApp(1)
	rt, err := BuildEnclave(hostA, app, owner)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add(NewDeployment(app, owner))
	if _, err := rt.ECall(0, testapps.CounterAdd, 1001); err != nil {
		t.Fatal(err)
	}
	inc, err := Migrate(rt, hostB, reg, &MigrationOptions{Service: service})
	if err != nil {
		t.Fatal(err)
	}
	res, err := inc.Runtime.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 1001 {
		t.Fatalf("facade migration lost state: %d", res[0])
	}
	if _, err := rt.ECall(0, testapps.CounterGet); !errors.Is(err, enclave.ErrDestroyed) {
		t.Fatalf("facade source alive: %v", err)
	}
}

// TestMigrateRefusedByTargetReturns (regression): a target that refuses
// the migration — its registry lacks the image — stops reading, and a
// source whose checkpoint is larger than the in-process pipe holds (8 MiB
// against 16 frames of 256 KiB) used to block on the pipe for good, its
// enclave still quiesced. Migrate must return, and the source enclave must
// answer an ecall afterwards.
func TestMigrateRefusedByTargetReturns(t *testing.T) {
	service, owner, hostA, hostB, _, _ := facadeWorld(t)
	const kvBytes = 8 << 20
	app := workload.KVApp(kvBytes, 1)
	rt, err := BuildEnclave(hostA, app, owner)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Destroy() })
	if _, err := rt.ECall(0, workload.KVFill, kvBytes); err != nil {
		t.Fatal(err)
	}
	before, err := rt.ECall(0, workload.KVLen)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Migrate(rt, hostB, NewRegistry(), &MigrationOptions{Service: service})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a target without the image accepted the migration")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Migrate still blocked 10s after the target refused")
	}
	after, err := rt.ECall(0, workload.KVLen)
	if err != nil || after[0] != before[0] {
		t.Fatalf("source after the refused migration: KVLen = %d, %v; want %d", after[0], err, before[0])
	}
}

// TestFacadeOwnerSnapshot exercises OwnerCheckpoint/OwnerResume through the
// facade.
func TestFacadeOwnerSnapshot(t *testing.T) {
	_, owner, hostA, hostB, _, _ := facadeWorld(t)
	app := testapps.CounterApp(1)
	rt, err := BuildEnclave(hostA, app, owner)
	if err != nil {
		t.Fatal(err)
	}
	dep := NewDeployment(app, owner)
	if _, err := rt.ECall(0, testapps.CounterAdd, 7); err != nil {
		t.Fatal(err)
	}
	blob, err := OwnerCheckpoint(owner, rt)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := OwnerResume(owner, hostB, dep, blob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inc.Runtime.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 7 {
		t.Fatalf("facade resume state: %d", res[0])
	}
	if len(owner.Audit()) < 2 {
		t.Fatal("audit log missing entries")
	}
}

// TestFacadeAgentMeasurement: the helper matches the deployed agent.
func TestFacadeAgentMeasurement(t *testing.T) {
	_, owner, _, hostB, _, _ := facadeWorld(t)
	want := AgentMeasurement(owner)
	agent, err := StartAgent(hostB, owner)
	if err != nil {
		t.Fatal(err)
	}
	if agent.Measurement() != want {
		t.Fatal("AgentMeasurement disagrees with the deployed agent")
	}
}

// TestFacadeLiveMigrate drives the VM path through the facade types.
func TestFacadeLiveMigrate(t *testing.T) {
	service, owner, _, _, _, _ := facadeWorld(t)
	nodeA, err := NewNode(NodeConfig{Name: "fn-a", EPCFrames: 4096}, service)
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := NewNode(NodeConfig{Name: "fn-b", EPCFrames: 4096}, service)
	if err != nil {
		t.Fatal(err)
	}
	app := testapps.CounterApp(1)
	owner.ConfigureApp(app)
	dep := NewDeployment(app, owner)
	nodeA.Registry.Add(dep)
	nodeB.Registry.Add(dep)
	vm, err := nodeA.CreateVM(VMConfig{Name: "fvm", MemPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.OS.LaunchEnclaveProcess("e0", "counter", owner, nil); err != nil {
		t.Fatal(err)
	}
	p := vm.OS.Processes()[0]
	if _, err := p.RT.ECall(0, testapps.CounterAdd, 5); err != nil {
		t.Fatal(err)
	}
	tvm, stats, err := LiveMigrate(vm, nodeB, &LiveMigrationConfig{BandwidthBps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if stats.EnclaveCount != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	res, err := tvm.OS.Processes()[0].RT.ECall(0, testapps.CounterGet)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 5 {
		t.Fatalf("VM facade migration lost state: %d", res[0])
	}
	if err := tvm.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestHostprotoIdentityDerivation: independent processes sharing a secret
// must derive identical identities — and different secrets must not.
func TestHostprotoIdentityDerivation(t *testing.T) {
	a := hostproto.DeriveIdentities("demo")
	b := hostproto.DeriveIdentities("demo")
	c := hostproto.DeriveIdentities("other")
	if a != b {
		t.Fatal("same secret derived different identities")
	}
	if a.SignerSeed == c.SignerSeed || a.ServiceSeed == c.ServiceSeed || a.EnclaveSeed == c.EnclaveSeed {
		t.Fatal("different secrets share identity material")
	}
	if a.SignerSeed == a.ServiceSeed || a.SignerSeed == a.EnclaveSeed {
		t.Fatal("derived identities collide with each other")
	}
}

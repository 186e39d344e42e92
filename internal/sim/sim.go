// Package sim assembles complete simulated worlds — attestation service,
// enclave owner, SGX machines, hosts — for tests, examples and benchmarks.
package sim

import (
	"fmt"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/ledger"
	"repro/internal/sgx"
)

// World is a multi-machine cloud with one attestation service and one
// enclave owner.
type World struct {
	Service  *attest.Service
	Owner    *core.Owner
	Machines []*sgx.Machine
	Hosts    []*enclave.Host
	Registry *core.Registry

	tb TB // set by NewTestWorld: Launch and Own destroy at its end
}

// Config tunes world construction.
type Config struct {
	Machines  int
	EPCFrames int
	Quantum   int
}

// NewWorld boots a world with n machines using defaults.
func NewWorld(n int) (*World, error) {
	return NewWorldConfig(Config{Machines: n})
}

// NewWorldConfig boots a world.
func NewWorldConfig(cfg Config) (*World, error) {
	if cfg.Machines <= 0 {
		cfg.Machines = 2
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 2000
	}
	service, err := attest.NewService()
	if err != nil {
		return nil, err
	}
	owner, err := core.NewOwner(service)
	if err != nil {
		return nil, err
	}
	w := &World{Service: service, Owner: owner, Registry: core.NewRegistry()}
	for i := 0; i < cfg.Machines; i++ {
		m, err := sgx.NewMachine(sgx.Config{
			Name:      fmt.Sprintf("machine-%d", i),
			EPCFrames: cfg.EPCFrames,
			Quantum:   cfg.Quantum,
		})
		if err != nil {
			return nil, err
		}
		service.RegisterMachine(m.AttestationPublic())
		w.Machines = append(w.Machines, m)
		w.Hosts = append(w.Hosts, enclave.NewBareHost(m))
	}
	return w, nil
}

// TB is the part of testing.TB NewTestWorld uses.
type TB interface {
	ledger.TB
	Fatal(args ...any)
}

// NewTestWorld boots a world for a test, failing t if it cannot, and
// checks when t ends that every ledger count came back to where it stood
// and that no machine holds an enclave or a stray EPC frame
// (ledger.Check). The enclaves Launch builds are destroyed before the
// check; the test hands every other enclave it was given to Own.
func NewTestWorld(t TB, cfg Config) *World {
	t.Helper()
	w, err := NewWorldConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.tb = t
	var hs []ledger.Holding
	for i, m := range w.Machines {
		hs = append(hs,
			ledger.Holding{Kind: "enclaves on " + m.Name(), Excess: m.LiveEnclaves},
			ledger.Holding{Kind: "stray EPC frames on " + m.Name(), Excess: w.Hosts[i].Mgr.StrayFrames})
	}
	ledger.Check(t, hs...)
	return w
}

// Deploy owner-configures an app, signs it and registers the deployment.
func (w *World) Deploy(app *enclave.App) *core.Deployment {
	w.Owner.ConfigureApp(app)
	dep := core.NewDeployment(app, w.Owner)
	w.Registry.Add(dep)
	return dep
}

// Launch builds and provisions an enclave for a deployed app on machine
// index host.
func (w *World) Launch(dep *core.Deployment, host int) (*enclave.Runtime, error) {
	rt, err := enclave.BuildSigned(w.Hosts[host], dep.App, dep.Sig)
	if err != nil {
		return nil, err
	}
	if err := w.Owner.Provision(rt); err != nil {
		_ = rt.Destroy()
		return nil, err
	}
	return w.Own(rt), nil
}

// Own destroys rt when the test of a NewTestWorld world ends, before the
// world's ledger check. It returns rt, and does nothing in another world.
func (w *World) Own(rt *enclave.Runtime) *enclave.Runtime {
	if w.tb != nil {
		w.tb.Cleanup(func() { _ = rt.Destroy() })
	}
	return rt
}

// Pipe is core.NewPipe, with both ends closed when the test of a
// NewTestWorld world ends, so no frame stays queued in a pipe no one reads.
func (w *World) Pipe() (core.Transport, core.Transport) {
	a, b := core.NewPipe()
	if w.tb != nil {
		w.tb.Cleanup(func() {
			_ = a.Close()
			_ = b.Close()
		})
	}
	return a, b
}

// Opts returns default migration options for this world.
func (w *World) Opts() *core.Options {
	return &core.Options{Service: w.Service}
}

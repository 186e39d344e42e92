package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/workload"
)

const (
	kvBytes = 8 << 20
	// kvFrames is the EPC each host's driver may use: 2048 heap pages under
	// 1700 frames keeps about 400 pages swapped out at all times while the
	// evicted set still fits the single VA page (512 slots) the driver can
	// allocate from a full pool.
	kvFrames = 1700
	kvHops   = 6
	kvProbes = 16 // seeded keys written before and read back after every hop
)

// enclaveWorld is one owner's deployment of one app, its attestation
// service, and the single live instance being migrated around.
type enclaveWorld struct {
	service *attest.Service
	owner   *core.Owner
	dep     *core.Deployment
	reg     *core.Registry
	opts    *core.Options
	rt      *enclave.Runtime
	host    *enclave.Host
}

// newHost boots a machine known to the attestation service and gives its
// driver frames EPC frames (0 = all of them).
func (w *enclaveWorld) newHost(name string, frames int) (*enclave.Host, error) {
	m, err := sgx.NewMachine(sgx.Config{Name: name})
	if err != nil {
		return nil, err
	}
	w.service.RegisterMachine(m.AttestationPublic())
	if frames == 0 {
		return enclave.NewBareHost(m), nil
	}
	return enclave.NewConstrainedHost(m, frames), nil
}

// launch builds and provisions one instance the way hostd's launch does.
func (w *enclaveWorld) launch(host *enclave.Host) (*enclave.Runtime, error) {
	rt, err := enclave.BuildSigned(host, w.dep.App, w.dep.Sig)
	if err != nil {
		return nil, err
	}
	if err := w.owner.Provision(rt); err != nil {
		_ = rt.Destroy()
		return nil, err
	}
	return rt, nil
}

// newEnclaveWorld signs app and launches it on a first host with frames
// EPC frames.
func newEnclaveWorld(app *enclave.App, frames int) (*enclaveWorld, error) {
	service, err := attest.NewService()
	if err != nil {
		return nil, err
	}
	owner, err := core.NewOwner(service)
	if err != nil {
		return nil, err
	}
	owner.ConfigureApp(app)
	w := &enclaveWorld{
		service: service,
		owner:   owner,
		dep:     core.NewDeployment(app, owner),
		reg:     core.NewRegistry(),
		opts:    &core.Options{Service: service},
	}
	w.reg.Add(w.dep)
	if w.host, err = w.newHost(app.Name+"-0", frames); err != nil {
		return nil, err
	}
	if w.rt, err = w.launch(w.host); err != nil {
		return nil, err
	}
	return w, nil
}

// hop migrates the instance onto dst over an in-process pipe: the source
// and target halves of the protocol run concurrently, as in any two-party
// migration. Spans go under parent. On success the world's instance is
// the restored one.
func (w *enclaveWorld) hop(parent spanRef, dst *enclave.Host) (core.SourceReport, *core.Incoming, int64, error) {
	ts, tt := core.NewPipe()
	var inc *core.Incoming
	var inErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		sp := parent.child("core.migrate_in")
		inc, inErr = core.MigrateIn(dst, w.reg, tt, w.opts)
		end := time.Now()
		sp.end()
		if inErr != nil {
			_ = tt.Close() // unblock the source half
			return
		}
		sp.derived("core.restore", end.Add(-inc.VerifyTime-inc.RestoreTime), inc.RestoreTime)
		sp.derived("core.verify", end.Add(-inc.VerifyTime), inc.VerifyTime)
	}()
	sp := parent.child("core.migrate_out")
	start := time.Now()
	rep, err := core.MigrateOut(w.rt, ts, w.opts)
	sp.end()
	if err != nil {
		_ = ts.Close() // unblock the target half
	}
	<-done
	sp.derived("core.prepare", start, rep.PrepareTime)
	sp.derived("core.dump", start.Add(rep.PrepareTime), rep.DumpTime)
	// The channel phase follows the checkpoint transfer, whose duration the
	// report does not carry; the span is placed right after the dump.
	sp.derived("core.channel", start.Add(rep.PrepareTime+rep.DumpTime), rep.ChannelTime)
	wire := ts.(core.ByteCounter).BytesSent() + tt.(core.ByteCounter).BytesSent()
	if err != nil {
		return rep, nil, wire, fmt.Errorf("migrate out: %w", err)
	}
	if inErr != nil {
		return rep, nil, wire, fmt.Errorf("migrate in: %w", inErr)
	}
	w.rt, w.host = inc.Runtime, dst
	return rep, inc, wire, nil
}

func kvApp() *enclave.App { return workload.KVApp(kvBytes, 2) }

// kvWorld is a filled 8 MiB KV enclave with seeded probe keys planted.
type kvWorld struct {
	*enclaveWorld
	slots uint64
	keys  [kvProbes]uint64
	words [kvProbes]uint64 // first value word of each probe key
}

// buildKV builds, provisions and fills the KV enclave on a host with
// frames EPC frames, then plants the probe keys.
func buildKV(rng *rand.Rand, frames int) (*kvWorld, error) {
	ew, err := newEnclaveWorld(kvApp(), frames)
	if err != nil {
		return nil, err
	}
	w := &kvWorld{enclaveWorld: ew}
	if _, err := w.rt.ECall(0, workload.KVFill, kvBytes); err != nil {
		return nil, err
	}
	res, err := w.rt.ECall(0, workload.KVLen)
	if err != nil {
		return nil, err
	}
	w.slots = res[0]
	// The store is direct-mapped: a later probe key can land on an earlier
	// one's slot and evict it. Replant until all sixteen read back.
	planted := [kvProbes]bool{}
	for missing := kvProbes; missing > 0; {
		for i := range w.keys {
			if planted[i] {
				continue
			}
			w.keys[i] = rng.Uint64()
			if _, err := w.rt.ECall(0, workload.KVSet, w.keys[i]); err != nil {
				return nil, err
			}
		}
		missing = 0
		for i, k := range w.keys {
			got, err := w.rt.ECall(0, workload.KVGet, k)
			if err != nil {
				return nil, err
			}
			planted[i] = got[0] == 1
			if !planted[i] {
				missing++
			}
			w.words[i] = got[2]
		}
	}
	return w, nil
}

// verify is the state check after a hop: every slot still counted, every
// probe key still answering with the value it had at set time, and the
// source instance gone.
func (w *kvWorld) verify(src *enclave.Runtime) error {
	if !src.Dead() {
		return fmt.Errorf("single-instance violated: kv source still live after migration")
	}
	res, err := w.rt.ECall(0, workload.KVLen)
	if err != nil {
		return fmt.Errorf("KVLen on target: %w", err)
	}
	if res[0] != w.slots {
		return fmt.Errorf("KVLen = %d on target, want %d", res[0], w.slots)
	}
	for i, k := range w.keys {
		got, err := w.rt.ECall(0, workload.KVGet, k)
		if err != nil {
			return fmt.Errorf("KVGet on target: %w", err)
		}
		if got[0] != 1 || got[2] != w.words[i] {
			return fmt.Errorf("key %#x: found=%d word=%#x on target, want word %#x", k, got[0], got[2], w.words[i])
		}
	}
	return nil
}

// bigstateWorld fills one KV enclave under EPC pressure and migrates it
// kvHops times, each time onto a fresh constrained host.
func bigstateWorld(r *run) error {
	var w *kvWorld
	if err := r.setup(func() (err error) {
		w, err = buildKV(r.rng, kvFrames)
		return err
	}); err != nil {
		return err
	}
	defer func() { _ = w.rt.Destroy() }()
	for hop := 0; hop < kvHops; hop++ {
		if r.stop() {
			return nil
		}
		dst, err := w.newHost(fmt.Sprintf("kv-%d", hop+1), kvFrames)
		if err != nil {
			return err
		}
		src, srcHost := w.rt, w.host
		ev0, rl0 := srcHost.Mgr.Stats()
		ok := r.do(1, func(o *op) error {
			_, _, wire, err := w.hop(o.span, dst)
			o.wire = wire
			return err
		}, func(o *op) error {
			ev1, rl1 := srcHost.Mgr.Stats()
			ev2, rl2 := dst.Mgr.Stats()
			o.layer.add("epcman.evictions_per_migration", float64(ev1-ev0+ev2))
			o.layer.add("epcman.reloads_per_migration", float64(rl1-rl0+rl2))
			return w.verify(src)
		})
		if !ok {
			return nil // the enclave may be gone; start over with a new fill
		}
	}
	return nil
}

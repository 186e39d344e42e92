package enclave_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/sim"
	"repro/internal/tcb"
	"repro/internal/testapps"
)

// sentChannel is a source transport that keeps the DH half of the
// MsgChannel it sends.
type sentChannel struct {
	core.Transport
	half tcb.DHPublic
}

func (s *sentChannel) Send(m core.Message) error {
	if m.Kind == core.MsgChannel && len(m.Blob) >= len(s.half) {
		s.half = tcb.DHPublic(m.Blob)
	}
	return s.Transport.Send(m)
}

// TestCheckpointCarriesNoChannelHalf: the source's dump draws its DH half
// only after it has sealed the final record, so the control page in the
// checkpoint — which the target's restore writes back — holds an older
// seed, never the one behind the half the source sent in MsgChannel.
func TestCheckpointCarriesNoChannelHalf(t *testing.T) {
	w := sim.NewTestWorld(t, sim.Config{Machines: 2})
	app := testapps.CounterApp(1)
	readSeed := uint64(len(app.ECalls))
	app.ECalls = append(app.ECalls, func(c *enclave.Call) enclave.AppStatus {
		for i := range tcb.SeedSize / 8 {
			v, err := c.Load64(enclave.OffDHSeed + 8*uint64(i))
			if err != nil {
				return enclave.AppAbort
			}
			c.Regs[i] = v
		}
		return enclave.AppDone
	})
	src, err := w.Launch(w.Deploy(app), 0)
	if err != nil {
		t.Fatal(err)
	}

	t1, t2 := w.Pipe()
	tap := &sentChannel{Transport: t1}
	type result struct {
		inc *core.Incoming
		err error
	}
	in := make(chan result, 1)
	go func() {
		inc, err := core.MigrateIn(w.Hosts[1], w.Registry, t2, w.Opts())
		in <- result{inc, err}
	}()
	if _, err := core.MigrateOut(src, tap, w.Opts()); err != nil {
		t.Fatalf("MigrateOut: %v", err)
	}
	r := <-in
	if r.err != nil {
		t.Fatalf("MigrateIn: %v", r.err)
	}
	w.Own(r.inc.Runtime)

	regs, err := r.inc.Runtime.ECall(0, readSeed)
	if err != nil {
		t.Fatal(err)
	}
	var seed [tcb.SeedSize]byte
	for i := range tcb.SeedSize / 8 {
		binary.LittleEndian.PutUint64(seed[8*i:], regs[i])
	}
	if seed == [tcb.SeedSize]byte{} {
		t.Fatal("the restored control page holds no DH seed at all")
	}
	kp, err := tcb.NewDHKeyPairFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	if kp.Public() == tap.half {
		t.Fatal("the checkpoint's control page holds the seed of the source's channel half")
	}
}

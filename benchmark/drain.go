package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/testapps"
)

const (
	drainHosts    = 3
	drainEnclaves = 24
)

// drainWorld is three daemons with every enclave on the first, and a fleet
// controller over them.
type drainWorld struct {
	d     *daemons
	f     *fleet.Fleet
	want  map[string]uint64 // launch id → counter value
	drain string            // address of the host to empty
}

// buildDrainWorld launches the enclaves and builds a controller with the
// given per-host inflight cap (0 = fleet's default).
func buildDrainWorld(rng *rand.Rand, traced bool, inflight int) (*drainWorld, error) {
	d, err := startDaemons(drainHosts, traced)
	if err != nil {
		return nil, err
	}
	w := &drainWorld{d: d, want: make(map[string]uint64, drainEnclaves), drain: d.hosts[0].addr}
	for i := 0; i < drainEnclaves; i++ {
		v := 1 + rng.Uint64()>>1
		id, err := launchCounter(spanRef{}, w.drain, v)
		if err != nil {
			d.close()
			return nil, err
		}
		w.want[id] = v
	}
	cfg := fleet.Config{Hosts: d.addrs(), PerHostInflight: inflight}
	if traced {
		cfg.Tracer = telemetry.New()
	}
	if w.f, err = fleet.New(cfg); err != nil {
		d.close()
		return nil, err
	}
	return w, nil
}

// verify checks the drained fleet: every enclave moved exactly once, the
// source is empty down to its EPC (one frame may stay: the driver's VA
// page), and every counter kept its value on whichever peer took it.
func (w *drainWorld) verify(o *op, rep *fleet.Report) error {
	if rep.Moved != drainEnclaves || rep.MovedAfterError+rep.Lost+rep.Failed != 0 {
		return fmt.Errorf("drain: %s", rep.Summary())
	}
	snap, err := w.settled(o)
	if err != nil {
		return err
	}
	seen := 0
	for _, h := range snap {
		if h.Addr == w.drain {
			if len(h.Stats.Live) != 0 {
				return fmt.Errorf("single-instance violated: drained host still lists %v", h.Stats.Live)
			}
			if used := h.Stats.TotalEPC - h.Stats.FreeEPC; used > 1 {
				return fmt.Errorf("drained host still holds %d EPC frames", used)
			}
			continue
		}
		for _, id := range h.Stats.Live {
			orig, _, ok := strings.Cut(id, "@")
			v, known := w.want[orig]
			if !ok || !known {
				return fmt.Errorf("unexpected session %s on %s", id, h.Addr)
			}
			got, err := counterCall(o.span, h.Addr, id, testapps.CounterGet)
			if err != nil {
				return err
			}
			if got != v {
				return fmt.Errorf("counter %s = %d on %s, want %d", id, got, h.Addr, v)
			}
			seen++
		}
	}
	if seen != drainEnclaves {
		return fmt.Errorf("peers list %d enclaves after drain, want %d", seen, drainEnclaves)
	}
	return nil
}

// settled polls the fleet until no host reports a migration in flight: a
// target registers an inbound session an instant after the acknowledgment
// that lets Drain return.
func (w *drainWorld) settled(o *op) ([]fleet.HostStatus, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		sp := o.span.child("fleet.poll")
		err := w.f.Poll()
		sp.end()
		if err != nil {
			return nil, err
		}
		snap := w.f.Snapshot()
		inflight := 0
		for _, h := range snap {
			inflight += h.Stats.InflightIn + h.Stats.InflightOut
		}
		if inflight == 0 || time.Now().After(deadline) {
			return snap, nil
		}
	}
}

// drainWorldOnce builds a fresh fleet (set-up) and drains its loaded host.
func drainWorldOnce(r *run) error {
	var w *drainWorld
	err := r.setup(func() (err error) {
		w, err = buildDrainWorld(r.rng, r.traced, 0)
		return err
	})
	if err != nil {
		return err
	}
	defer w.d.close()
	defer r.addPaging(w.d)
	var rep *fleet.Report
	r.do(drainEnclaves, func(o *op) error {
		w0 := w.d.wire.Load()
		sp := o.span.child("fleet.drain")
		var err error
		rep, err = fleet.Drain(w.f, w.drain)
		sp.end()
		o.wire = w.d.wire.Load() - w0
		return err
	}, func(o *op) error {
		o.layer.add("fleet.drain_passes", float64(rep.Passes))
		return w.verify(o, rep)
	})
	return nil
}

package main

import (
	"fmt"
	"time"

	"repro/internal/hostproto"
	"repro/internal/testapps"
)

const (
	// pingpongEnclaves per world and pingpongHops per enclave: session ids
	// grow by "@n" on every hop and daemons never forget a departed id's
	// counter, so both are bounded and the daemons replaced.
	pingpongEnclaves = 32
	pingpongHops     = 16
)

// pingpongWorld drives one pair of daemons: launch the enclaves (set-up),
// then bounce each between the two hosts.
func pingpongWorld(r *run) error {
	var d *daemons
	ids := make([]string, 0, pingpongEnclaves)
	vals := make([]uint64, 0, pingpongEnclaves)
	err := r.setup(func() error {
		var err error
		if d, err = startDaemons(2, r.traced); err != nil {
			return err
		}
		for i := 0; i < pingpongEnclaves; i++ {
			v := 1 + r.rng.Uint64()>>1
			id, err := launchCounter(spanRef{}, d.hosts[0].addr, v)
			if err != nil {
				d.close()
				return err
			}
			ids = append(ids, id)
			vals = append(vals, v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.close()
	defer r.addPaging(d)
	for i, id := range ids {
		src, dst := d.hosts[0].addr, d.hosts[1].addr
		for hop := 0; hop < pingpongHops; hop++ {
			if r.stop() {
				return nil
			}
			var moved string
			ok := r.do(1, func(o *op) error {
				w0 := d.wire.Load()
				_, err := request(o.span, "hostd.migrate_out", src, hostproto.Command{
					Op: hostproto.OpMigrateOut, ID: id, Target: dst,
				})
				o.wire = d.wire.Load() - w0
				return err
			}, func(o *op) error {
				var err error
				if moved, err = locate(o.span, dst, id); err != nil {
					return err
				}
				got, err := counterCall(o.span, dst, moved, testapps.CounterGet)
				if err != nil {
					return err
				}
				o.down = time.Since(o.started)
				if got != vals[i] {
					return fmt.Errorf("counter %s = %d after hop %d, want %d", moved, got, hop, vals[i])
				}
				return notLive(o.span, src, id)
			})
			if !ok {
				break // the enclave's whereabouts are unknown; take the next one
			}
			id, src, dst = moved, dst, src
		}
	}
	return nil
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/benchmark/report"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/fleet"
	"repro/internal/hostproto"
	"repro/internal/sgx"
	"repro/internal/tcb"
	"repro/internal/telemetry"
	"repro/internal/testapps"
	"repro/internal/vmm"
)

// probeSet collects the probes' results.
type probeSet struct {
	rng    *rand.Rand
	budget time.Duration // wall time one tight loop measures
	out    map[string]report.Metric
}

func (p *probeSet) set(name, unit string, v float64, n int) {
	p.out[name] = report.Metric{Value: v, Unit: unit, N: n}
}

// loop calls f in growing batches until the budget is spent, reading the
// clock once per batch so a 50 ns call is not drowned by it, and returns
// the mean nanoseconds per call and the number of calls. It stops at f's
// first error.
func (p *probeSet) loop(f func() error) (float64, int, error) {
	n, batch := 0, 1
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			if err := f(); err != nil {
				return 0, 0, err
			}
		}
		n += batch
		el := time.Since(start)
		if el >= p.budget {
			return float64(el.Nanoseconds()) / float64(n), n, nil
		}
		if el/time.Duration(n)*time.Duration(batch) < 50*time.Microsecond {
			batch *= 2
		}
	}
}

// each times every call of f on its own until the budget is spent (at
// least three calls) and returns the median in nanoseconds: for calls
// that need untimed preparation between them, which f does before
// returning the function to time.
func (p *probeSet) each(f func() (timed func() error, err error)) (float64, int, error) {
	var ns []float64
	start := time.Now()
	for len(ns) < 3 || time.Since(start) < p.budget {
		timed, err := f()
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if err := timed(); err != nil {
			return 0, 0, err
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return report.Median(ns), len(ns), nil
}

func mibPerS(bytes int, nsPerCall float64) float64 {
	return float64(bytes) / mib / (nsPerCall / 1e9)
}

// runProbes measures every layer's public calls in isolation.
func runProbes(rng *rand.Rand, budget time.Duration) (map[string]report.Metric, error) {
	p := &probeSet{rng: rng, budget: budget, out: map[string]report.Metric{}}
	for _, probe := range []func() error{
		p.tcb, p.sgx, p.epcman, p.enclave, p.corePhases, p.wirecodec, p.transport,
		p.vmm, p.hostd, p.fleet, p.telemetry,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func (p *probeSet) tcb() error {
	key, err := tcb.RandomKey()
	if err != nil {
		return err
	}
	page := make([]byte, sgx.PageSize)
	p.rng.Read(page)
	aad := make([]byte, 16)

	var ctr uint64
	var sealed []byte
	_, objs0 := heapAllocs()
	ns, n, err := p.loop(func() (err error) {
		ctr++
		sealed, err = tcb.SealDeterministic(key, ctr, page, aad)
		return err
	})
	if err != nil {
		return err
	}
	_, objs1 := heapAllocs()
	p.set("tcb.seal_4k_ns", "ns", ns, n)
	p.set("tcb.seal_4k_allocs", "count", float64(objs1-objs0)/float64(n), n)
	ns, n, err = p.loop(func() error {
		_, err := tcb.OpenDeterministic(key, ctr, sealed, aad)
		return err
	})
	if err != nil {
		return err
	}
	p.set("tcb.open_4k_ns", "ns", ns, n)

	ckpt := make([]byte, mib)
	p.rng.Read(ckpt)
	var blob []byte
	ns, n, err = p.loop(func() (err error) {
		blob, err = tcb.EncryptCheckpoint(tcb.CipherAESGCM, key, ckpt, aad)
		return err
	})
	if err != nil {
		return err
	}
	p.set("tcb.ckpt_encrypt_mib_s", "MiB/s", mibPerS(len(ckpt), ns), n)
	ns, n, err = p.loop(func() error {
		_, err := tcb.DecryptCheckpoint(tcb.CipherAESGCM, key, blob, aad)
		return err
	})
	if err != nil {
		return err
	}
	p.set("tcb.ckpt_decrypt_mib_s", "MiB/s", mibPerS(len(ckpt), ns), n)

	peer, err := tcb.NewDHKeyPair()
	if err != nil {
		return err
	}
	ns, n, err = p.loop(func() error {
		kp, err := tcb.NewDHKeyPair()
		if err != nil {
			return err
		}
		_, err = kp.Shared(peer.Public(), "probe")
		return err
	})
	if err != nil {
		return err
	}
	p.set("tcb.dh_us", "us", ns/1e3, n)

	id, err := tcb.NewSigningIdentity()
	if err != nil {
		return err
	}
	msg := page[:96]
	ns, n, err = p.loop(func() error { return tcb.Verify(id.Public(), msg, id.Sign(msg)) })
	if err != nil {
		return err
	}
	p.set("tcb.sign_verify_us", "us", ns/1e3, n)
	return nil
}

// sgx times EWB and ELDU of one REG page of an enclave built by hand:
// a SECS, the page and a VA page, nothing else.
func (p *probeSet) sgx() error {
	m, err := sgx.NewMachine(sgx.Config{Name: "probe"})
	if err != nil {
		return err
	}
	eid, err := m.ECREATE(0, enclave.ProgramFor(testapps.CounterApp(1)), 4, 1)
	if err != nil {
		return err
	}
	var content sgx.Page
	p.rng.Read(content[:])
	if err := m.EADD(1, eid, 0, sgx.PermR|sgx.PermW, &content); err != nil {
		return err
	}
	if err := m.EPA(2); err != nil {
		return err
	}
	var ewb, eldu time.Duration
	_, n, err := p.loop(func() error {
		t0 := time.Now()
		ev, err := m.EWB(1, 2, 0)
		if err != nil {
			return err
		}
		t1 := time.Now()
		err = m.ELDU(1, ev, 2, 0)
		eldu += time.Since(t1)
		ewb += t1.Sub(t0)
		return err
	})
	if err != nil {
		return err
	}
	p.set("sgx.ewb_ns", "ns", float64(ewb.Nanoseconds())/float64(n), n)
	p.set("sgx.eldu_ns", "ns", float64(eldu.Nanoseconds())/float64(n), n)
	return nil
}

// epcman faults evicted heap pages of the filled KV enclave back in while
// its pool is full, so every FaultIn is one ELDU plus one EWB.
func (p *probeSet) epcman() error {
	w, err := buildKV(p.rng, kvFrames)
	if err != nil {
		return err
	}
	defer func() { _ = w.rt.Destroy() }()
	heap := w.rt.Layout().HeapBase()
	pages := w.rt.Layout().HeapPages
	var took time.Duration
	hits := 0
	start := time.Now()
	for lin := 0; hits < 3 || time.Since(start) < p.budget; lin = (lin + 1) % pages {
		t0 := time.Now()
		// A resident page is "not in swap"; only evicted ones count.
		if w.host.Mgr.FaultIn(w.rt.EnclaveID(), heap+sgx.PageNum(lin)) == nil {
			took += time.Since(t0)
			hits++
		}
		if lin == pages-1 && hits == 0 {
			return errors.New("epcman probe: no heap page of the KV enclave is evicted")
		}
	}
	p.set("epcman.faultin_us", "us", float64(took.Nanoseconds())/1e3/float64(hits), hits)
	return nil
}

// enclave times building and provisioning an instance, and one ecall.
func (p *probeSet) enclave() error {
	for _, c := range []struct {
		metric string
		app    *enclave.App
	}{
		{"enclave.build_ms.counter", testapps.CounterApp(2)},
		{"enclave.build_ms.kv8m", kvApp()},
	} {
		w, err := newEnclaveWorld(c.app, 0)
		if err != nil {
			return err
		}
		ns, n, err := p.each(func() (func() error, error) {
			if err := w.rt.Destroy(); err != nil {
				return nil, err
			}
			return func() (err error) {
				w.rt, err = w.launch(w.host)
				return err
			}, nil
		})
		if err != nil {
			return err
		}
		p.set(c.metric, "ms", ns/1e6, n)
		if c.app.Name == "counter" {
			ns, n, err := p.loop(func() error {
				_, err := w.rt.ECall(0, testapps.CounterGet)
				return err
			})
			if err != nil {
				return err
			}
			p.set("enclave.ecall_ns", "ns", ns, n)
		}
		if err := w.rt.Destroy(); err != nil {
			return err
		}
	}
	return nil
}

// corePhases migrates a counter and a filled KV enclave between
// unconstrained hosts over core.NewPipe and reads the checkpoint /
// transfer / restore split off SourceReport and Incoming.
func (p *probeSet) corePhases() error {
	counter, err := newEnclaveWorld(testapps.CounterApp(2), 0)
	if err != nil {
		return err
	}
	kv, err := buildKV(p.rng, 0)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		suffix string
		w      *enclaveWorld
	}{{"counter", counter}, {"kv8m", kv.enclaveWorld}} {
		var prepare, dump, channel, restore, verify []float64
		start := time.Now()
		for hop := 0; hop < 3 || time.Since(start) < p.budget; hop++ {
			dst, err := c.w.newHost(fmt.Sprintf("probe-%d", hop), 0)
			if err != nil {
				return err
			}
			src := c.w.rt
			rep, inc, _, err := c.w.hop(spanRef{}, dst)
			if err != nil {
				return err
			}
			if err := src.Destroy(); err != nil {
				return err
			}
			prepare = append(prepare, float64(rep.PrepareTime.Nanoseconds()))
			dump = append(dump, float64(rep.DumpTime.Nanoseconds()))
			channel = append(channel, float64(rep.ChannelTime.Nanoseconds()))
			restore = append(restore, float64(inc.RestoreTime.Nanoseconds()))
			verify = append(verify, float64(inc.VerifyTime.Nanoseconds()))
		}
		n := len(dump)
		p.set("core.dump_ms."+c.suffix, "ms", report.Median(dump)/1e6, n)
		p.set("core.restore_ms."+c.suffix, "ms", report.Median(restore)/1e6, n)
		if c.suffix == "counter" {
			p.set("core.prepare_us", "us", report.Median(prepare)/1e3, n)
			p.set("core.channel_us", "us", report.Median(channel)/1e3, n)
			p.set("core.verify_us", "us", report.Median(verify)/1e3, n)
		}
		if err := c.w.rt.Destroy(); err != nil {
			return err
		}
	}
	return nil
}

const chunkPages = 64 // the live-migration engine's default chunk

func chunkPageList() []int {
	pages := make([]int, chunkPages)
	for i := range pages {
		pages[i] = i
	}
	return pages
}

// wirecodec encodes 64-page chunks the three ways a pre-copy stream meets
// them (first-touch random, all zero, resend with 64 B changed per page)
// and decodes the sparse resend.
func (p *probeSet) wirecodec() error {
	pages := chunkPageList()
	const chunk = chunkPages * core.PageSize
	random := make([]byte, chunk)
	p.rng.Read(random)
	encode := func(src []byte, cache core.DeltaCache) (raw, delta *core.PageFrame) {
		data := core.GetBuf(chunk)
		copy(data, src)
		raw, delta, _ = core.EncodeChunk(pages, data, cache)
		return raw, delta
	}
	// Encoding cannot fail; only the decode loop below returns an error.
	ns, n, _ := p.loop(func() error {
		raw, delta := encode(random, core.DeltaCache{})
		raw.Release()
		delta.Release()
		return nil
	})
	p.set("core.wirecodec.encode_mib_s.random", "MiB/s", mibPerS(chunk, ns), n)
	zero := make([]byte, chunk)
	ns, n, _ = p.loop(func() error {
		raw, delta := encode(zero, core.DeltaCache{})
		raw.Release()
		delta.Release()
		return nil
	})
	p.set("core.wirecodec.encode_mib_s.zero", "MiB/s", mibPerS(chunk, ns), n)

	cache := core.DeltaCache{}
	raw, delta := encode(random, cache)
	raw.Release()
	delta.Release()
	var wire []byte
	var round byte
	ns, n, _ = p.loop(func() error {
		round++
		for pg := 0; pg < chunkPages; pg++ {
			off := pg*core.PageSize + 512
			for i := 0; i < 64; i++ {
				random[off+i] ^= round | 1
			}
		}
		raw, delta := encode(random, cache)
		if delta != nil {
			wire = core.AppendFrame(wire[:0], delta)
		}
		raw.Release()
		delta.Release()
		return nil
	})
	if len(wire) == 0 {
		return errors.New("wirecodec probe: sparse resend produced no delta frame")
	}
	p.set("core.wirecodec.encode_mib_s.sparse", "MiB/s", mibPerS(chunk, ns), n)
	p.set("core.wirecodec.sparse_ratio", "ratio", float64(len(wire))/chunk, n)

	target := make([]byte, chunk)
	ns, n, err := p.loop(func() error {
		f, _, err := core.DecodeFrame(wire)
		if err != nil {
			return err
		}
		off := 0
		for i, pg := range f.Pages {
			if err := core.ApplyXORDelta(target[pg*core.PageSize:(pg+1)*core.PageSize], f.Data[off:off+f.Sizes[i]]); err != nil {
				return err
			}
			off += f.Sizes[i]
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("core.wirecodec.decode_mib_s", "MiB/s", mibPerS(chunk, ns), n)
	return nil
}

// echo answers every message on t with the same message until t closes.
func echo(t core.Transport, done chan<- struct{}) {
	defer close(done)
	for {
		m, err := t.Recv()
		if err != nil {
			return
		}
		if t.Send(m) != nil {
			return
		}
	}
}

// tcpPair is a connected loopback TCP pair.
func tcpPair() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	server = <-accepted
	if err != nil || server == nil {
		if client != nil {
			client.Close()
		}
		if server != nil {
			server.Close()
		}
		return nil, nil, fmt.Errorf("loopback pair: %v", err)
	}
	return client, server, nil
}

// transport times message round trips over a pipe and over loopback TCP,
// and bulk frames over loopback TCP.
func (p *probeSet) transport() error {
	msg := core.Message{Kind: core.MsgHello, Blob: make([]byte, 64)}
	rtt := func(a, b core.Transport) (float64, int, error) {
		done := make(chan struct{})
		go echo(b, done)
		ns, n, err := p.loop(func() error {
			if err := a.Send(msg); err != nil {
				return err
			}
			_, err := a.Recv()
			return err
		})
		_ = a.Close()
		_ = b.Close()
		<-done
		return ns, n, err
	}
	a, b := core.NewPipe()
	ns, n, err := rtt(a, b)
	if err != nil {
		return err
	}
	p.set("core.transport.pipe_msg_rtt_us", "us", ns/1e3, n)

	c, s, err := tcpPair()
	if err != nil {
		return err
	}
	ns, n, err = rtt(core.NewConnTransport(c), core.NewConnTransport(s))
	if err != nil {
		return err
	}
	p.set("core.transport.tcp_msg_rtt_us", "us", ns/1e3, n)

	if c, s, err = tcpPair(); err != nil {
		return err
	}
	send, ok1 := core.NewConnTransport(c).(core.FrameTransport)
	recv, ok2 := core.NewConnTransport(s).(core.FrameTransport)
	if !ok1 || !ok2 {
		return errors.New("transport probe: conn transport does not carry frames")
	}
	// The receiver acknowledges nothing: it drains frames until the sender
	// closes, and the sender's clock stops when the receiver has them all.
	received := make(chan int, 1)
	go func() {
		got := 0
		for {
			f, err := recv.RecvFrame()
			if err != nil {
				received <- got
				return
			}
			got++
			f.Release()
		}
	}()
	pages := chunkPageList()
	start := time.Now()
	_, n, err = p.loop(func() error { return send.SendFrame(core.NewRawFrame(pages)) })
	_ = send.Close()
	got := <-received
	took := time.Since(start)
	_ = recv.Close()
	if err != nil {
		return err
	}
	if got != n {
		return fmt.Errorf("transport probe: %d of %d frames arrived", got, n)
	}
	p.set("core.transport.tcp_frame_mib_s", "MiB/s", mibPerS(n*chunkPages*core.PageSize, float64(took.Nanoseconds())), n)
	return nil
}

// vmm times the guest-wide two-phase checkpoint of 16 busy enclaves and
// the page copy/apply pair of the pre-copy stream.
func (p *probeSet) vmm() error {
	// One checkpoint per fresh world, entered the way vm_live enters it:
	// workers busy, new entries held off the dump (see workerGate).
	var w *vmWorld
	ns, n, err := p.each(func() (func() error, error) {
		if w != nil {
			w.vm.OS.CancelMigration()
			if err := w.vm.Shutdown(); err != nil {
				return nil, err
			}
		}
		var err error
		if w, err = buildVMWorld(p.rng, vmEnclaves); err != nil {
			return nil, err
		}
		return func() error {
			_, _, err := w.vm.OS.PrepareAllEnclaves(&core.Options{Service: w.vm.Node.Service})
			return err
		}, nil
	})
	if w != nil {
		w.vm.OS.CancelMigration()
		if serr := w.vm.Shutdown(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return err
	}
	p.set("vmm.prepare_all_ms", "ms", ns/1e6, n)

	src, dst := vmm.NewGuestMemory(chunkPages), vmm.NewGuestMemory(chunkPages)
	fill := make([]byte, chunkPages*vmm.PageSize)
	p.rng.Read(fill)
	if err := src.Write(0, fill); err != nil {
		return err
	}
	pages := chunkPageList()
	buf := make([]byte, len(fill))
	ns, n, _ = p.loop(func() error {
		src.CopyPages(pages, buf)
		dst.ApplyPages(pages, buf)
		return nil
	})
	p.set("vmm.copy_pages_mib_s", "MiB/s", mibPerS(len(fill), ns), n)
	return nil
}

// hostd times client round trips to one daemon over loopback.
func (p *probeSet) hostd() error {
	d, err := startDaemons(1, false)
	if err != nil {
		return err
	}
	defer d.close()
	addr := d.hosts[0].addr
	var id string
	var launches []float64
	// The daemon never frees a launched enclave: however fast the host, stop
	// well inside its EPC.
	for start := time.Now(); len(launches) < 3 || (time.Since(start) < p.budget && len(launches) < 256); {
		t0 := time.Now()
		if id, err = launchCounter(spanRef{}, addr, 1); err != nil {
			return err
		}
		launches = append(launches, float64(time.Since(t0).Nanoseconds()))
	}
	p.set("hostd.launch_ms", "ms", report.Median(launches)/1e6, len(launches))
	ns, n, err := p.loop(func() error {
		_, err := counterCall(spanRef{}, addr, id, testapps.CounterGet)
		return err
	})
	if err != nil {
		return err
	}
	p.set("hostd.call_us", "us", ns/1e3, n)
	ns, n, err = p.loop(func() error {
		_, err := fleet.Request(addr, hostproto.Command{Op: hostproto.OpStats}, requestTimeout)
		return err
	})
	if err != nil {
		return err
	}
	p.set("hostd.stats_us", "us", ns/1e3, n)
	return nil
}

// fleet times a poll of 3 hosts × 8 sessions and drains the fleet_drain
// world at per-host inflight 1 and at the default, alternating, so the
// ratio says what the controller's concurrency buys.
func (p *probeSet) fleet() error {
	d, err := startDaemons(drainHosts, false)
	if err != nil {
		return err
	}
	defer d.close()
	for _, h := range d.hosts {
		for i := 0; i < 8; i++ {
			if _, err := launchCounter(spanRef{}, h.addr, 1); err != nil {
				return err
			}
		}
	}
	f, err := fleet.New(fleet.Config{Hosts: d.addrs()})
	if err != nil {
		return err
	}
	ns, n, err := p.loop(f.Poll)
	if err != nil {
		return err
	}
	p.set("fleet.poll_us", "us", ns/1e3, n)

	var serial, parallel []float64
	start := time.Now()
	for rep := 0; rep < 3 || time.Since(start) < 4*p.budget; rep++ {
		for _, inflight := range []int{1, 0} {
			w, err := buildDrainWorld(p.rng, false, inflight)
			if err != nil {
				return err
			}
			t0 := time.Now()
			rep, err := fleet.Drain(w.f, w.drain)
			took := ms(time.Since(t0))
			if err == nil {
				err = w.verify(&op{}, rep)
			}
			w.d.close()
			if err != nil {
				return err
			}
			if inflight == 1 {
				serial = append(serial, took)
			} else {
				parallel = append(parallel, took)
			}
		}
	}
	p.set("fleet.drain_inflight1_ms", "ms", report.Median(serial), len(serial))
	p.set("fleet.drain_parallel_speedup", "ratio", report.Median(serial)/report.Median(parallel), len(parallel))
	return nil
}

// telemetry times what the product pays for its own observability.
func (p *probeSet) telemetry() error {
	j := telemetry.NewJournal(0)
	ns, n, _ := p.loop(func() error {
		j.Append(telemetry.EventQuiesce, "probe", telemetry.Context{})
		return nil
	})
	p.set("telemetry.journal_append_ns", "ns", ns, n)
	spans := func(tr *telemetry.Tracer) (float64, int) {
		ns, n, _ := p.loop(func() error {
			root := tr.Begin("probe")
			root.Child("probe.child").End()
			root.End()
			return nil
		})
		return ns, n
	}
	ns, n = spans(telemetry.New())
	p.set("telemetry.span_ns", "ns", ns, n)
	ns, n = spans(nil)
	p.set("telemetry.span_nil_ns", "ns", ns, n)
	return nil
}

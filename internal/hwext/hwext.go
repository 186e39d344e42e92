// Package hwext implements the paper's Sec. VII-B proposal — hardware
// support for *transparent* enclave migration — on top of the simulator's
// extension instructions (EPUTKEY, EMIGRATE, ESWPOUT/ESWPIN,
// ECHANGEOUT/ECHANGEIN, EMIGRATEDONE). It exists to quantify the proposal
// against the paper's software mechanism (benchmark A3 in DESIGN.md):
// with hardware support, system software migrates an enclave without any
// in-enclave cooperation — no control thread, no two-phase checkpointing,
// no CSSA tracking — and interrupted threads simply ERESUME on the target.
package hwext

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/attest"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/ledger"
	"repro/internal/sgx"
	"repro/internal/tcb"
	"repro/internal/telemetry"
)

// Errors.
var (
	ErrNoExtension = errors.New("hwext: machine lacks the migration extension")
)

// Control-enclave data layout (data region offsets).
const (
	ctrlOffDHSeed = 0
	ctrlOffNonce  = 32
)

// Control-enclave ecalls.
const (
	ctrlSelBegin  = 0
	ctrlSelFinish = 1
)

// ControlEnclaveApp builds the platform control enclave: the only enclave
// the extended hardware allows to execute EPUTKEY ("Intel can provide a
// special enclave, e.g., control enclave, for two machines to share the
// migration keys").
func ControlEnclaveApp(servicePub tcb.PublicKey) *enclave.App {
	return &enclave.App{
		Name:          "hwext-control-enclave",
		CodeVersion:   "v1",
		Workers:       1,
		DataPages:     1,
		HeapPages:     1,
		ServicePublic: servicePub,
		ECalls:        []enclave.ECallFn{ctrlBegin, ctrlFinish},
	}
}

// ctrlBegin (trusted): emit dhpub || nonce || report(QE).
func ctrlBegin(c *enclave.Call) enclave.AppStatus {
	base := c.DataBase()
	var seed [tcb.SeedSize]byte
	var nonce [32]byte
	if c.ReadRandom(seed[:]) != nil || c.ReadRandom(nonce[:]) != nil {
		return enclave.AppAbort
	}
	kp, err := tcb.NewDHKeyPairFromSeed(seed)
	if err != nil {
		return enclave.AppAbort
	}
	if c.Store(base+ctrlOffDHSeed, seed[:]) != nil || c.Store(base+ctrlOffNonce, nonce[:]) != nil {
		return enclave.AppAbort
	}
	pub := kp.Public()
	report := c.EReport(sgx.QETarget, sgx.HashToReportData(tcb.HashConcat(pub[:], nonce[:])))
	out := enclave.MarshalReport(report)
	out = append(out, pub[:]...)
	out = append(out, nonce[:]...)
	if c.OutsideStore(c.Regs[1], out) != nil {
		return enclave.AppAbort
	}
	c.Regs[0] = uint64(len(out))
	return enclave.AppDone
}

// ctrlFinish (trusted): verify the peer control enclave's quote + service
// verdict, derive the shared migration key and EPUTKEY it.
// Input: quote(224) || verdict(64) || peerDH(32) || peerNonce(32).
func ctrlFinish(c *enclave.Call) enclave.AppStatus {
	in := make([]byte, c.Regs[2])
	if len(in) < enclave.QuoteWireSize+enclave.VerdictWire+64 || c.OutsideLoad(c.Regs[1], in) != nil {
		return ctrlFail(c, 1)
	}
	quote, err := enclave.UnmarshalQuote(in[:enclave.QuoteWireSize])
	if err != nil {
		return ctrlFail(c, 2)
	}
	verdict, err := enclave.UnmarshalVerdict(in[enclave.QuoteWireSize : enclave.QuoteWireSize+enclave.VerdictWire])
	if err != nil {
		return ctrlFail(c, 3)
	}
	var peerDH tcb.DHPublic
	var peerNonce [32]byte
	copy(peerDH[:], in[enclave.QuoteWireSize+enclave.VerdictWire:])
	copy(peerNonce[:], in[enclave.QuoteWireSize+enclave.VerdictWire+32:])

	if attest.VerifyVerdict(c.AppServicePublic(), quote, verdict) != nil {
		return ctrlFail(c, 4)
	}
	// The peer must be another instance of this very control enclave.
	if quote.Measurement != c.Measurement() {
		return ctrlFail(c, 5)
	}
	if quote.Data != sgx.HashToReportData(tcb.HashConcat(peerDH[:], peerNonce[:])) {
		return ctrlFail(c, 6)
	}
	base := c.DataBase()
	var seed [tcb.SeedSize]byte
	if c.Load(base+ctrlOffDHSeed, seed[:]) != nil {
		return ctrlFail(c, 7)
	}
	kp, err := tcb.NewDHKeyPairFromSeed(seed)
	if err != nil {
		return ctrlFail(c, 8)
	}
	key, err := kp.Shared(peerDH, "hwext-migration-key")
	if err != nil {
		return ctrlFail(c, 9)
	}
	if err := c.EPutKey(key); err != nil {
		return ctrlFail(c, 10)
	}
	c.Regs[0] = 1
	return enclave.AppDone
}

func ctrlFail(c *enclave.Call, code uint64) enclave.AppStatus {
	c.Regs[0] = 0
	c.Regs[1] = code
	return enclave.AppDone
}

// Platform is one machine prepared for hardware-assisted migration: the
// machine (with the extension enabled), its host and its control enclave.
type Platform struct {
	Host *enclave.Host
	Ctrl *enclave.Runtime

	// Trace, if set, parents the hwext.* spans MigrateTransparent emits on
	// the destination platform (nil leaves tracing off).
	Trace *telemetry.Span
	// Metrics, if set, receives the swap-stream instruments: gauge
	// hwext.swapq.chunks, counters hwext.pages.sealed / hwext.pages.installed.
	Metrics *telemetry.Metrics
}

// NewPlatform builds and registers the control enclave on a machine created
// with Config.MigrationExtension = true.
func NewPlatform(host *enclave.Host, service *attest.Service, signer *tcb.SigningIdentity) (*Platform, error) {
	app := ControlEnclaveApp(service.Public())
	mr := enclave.MeasureApp(app)
	if err := host.Mgr.Machine().RegisterControlEnclave(mr); err != nil {
		return nil, fmt.Errorf("hwext: register control enclave: %w", err)
	}
	rt, err := enclave.Build(host, app, signer)
	if err != nil {
		return nil, err
	}
	return &Platform{Host: host, Ctrl: rt}, nil
}

// EstablishMigrationKeys runs the mutual attestation between two platforms'
// control enclaves and installs the shared migration key into both CPUs.
func EstablishMigrationKeys(a, b *Platform, service *attest.Service) error {
	helloA, err := ctrlHello(a, service)
	if err != nil {
		return err
	}
	helloB, err := ctrlHello(b, service)
	if err != nil {
		return err
	}
	if err := ctrlFinishCall(a, helloB); err != nil {
		return fmt.Errorf("hwext: platform A finish: %w", err)
	}
	if err := ctrlFinishCall(b, helloA); err != nil {
		return fmt.Errorf("hwext: platform B finish: %w", err)
	}
	return nil
}

// ctrlHello runs ctrlBegin and attaches the quote + verdict.
func ctrlHello(p *Platform, service *attest.Service) ([]byte, error) {
	res, err := p.Ctrl.ECall(0, ctrlSelBegin, enclave.SharedReqOff)
	if err != nil {
		return nil, err
	}
	quote, dhNonce, err := core.QuoteExchange(p.Ctrl, res[0])
	if err != nil {
		return nil, err
	}
	verdict, err := service.Attest(quote)
	if err != nil {
		return nil, err
	}
	hello := enclave.MarshalQuote(quote)
	hello = append(hello, enclave.MarshalVerdict(verdict)...)
	hello = append(hello, dhNonce...)
	return hello, nil
}

func ctrlFinishCall(p *Platform, hello []byte) error {
	if err := p.Ctrl.WriteShared(enclave.SharedReqOff, hello); err != nil {
		return err
	}
	res, err := p.Ctrl.ECall(0, ctrlSelFinish, enclave.SharedReqOff, uint64(len(hello)))
	if err != nil {
		return err
	}
	if res[0] != 1 {
		return fmt.Errorf("hwext: control enclave refused key establishment (step %d)", res[1])
	}
	return nil
}

// swapChunkPages is the batch size of the ESWPOUT → ESWPIN stream: pages are
// re-sealed and installed in chunks of this many so the source-side seal
// overlaps the target-side install.
const swapChunkPages = 64

// swapStreamQueue bounds how many sealed chunks may sit between the producer
// and the consumer.
const swapStreamQueue = 4

// swapBatchPool recycles the batch slices of the ESWPOUT → ESWPIN stream:
// a migration seals thousands of pages in swapChunkPages batches, and
// without pooling every batch is a fresh allocation on the downtime path.
var swapBatchPool = sync.Pool{
	New: func() any { return make([]*sgx.MigratedPage, 0, swapChunkPages) },
}

// getSwapBatch hands out an empty batch with swapChunkPages capacity. Pair
// with putSwapBatch once the batch's pages are installed (or dropped).
func getSwapBatch() []*sgx.MigratedPage {
	swapBatches.Add(1)
	return swapBatchPool.Get().([]*sgx.MigratedPage)[:0]
}

// swapBatches counts the batches getSwapBatch handed out that putSwapBatch
// has not had back.
var swapBatches = ledger.New("swap-batch")

// putSwapBatch returns a drained batch to the pool, dropping the page
// pointers first so the pool does not pin sealed page content.
func putSwapBatch(b []*sgx.MigratedPage) {
	swapBatches.Add(-1)
	for i := range b {
		b[i] = nil
	}
	swapBatchPool.Put(b[:0])
}

// MigrateTransparent migrates an enclave from src to dst entirely in system
// software using the extension instructions: freeze (EMIGRATE), re-seal
// every page under the shared migration key (ESWPOUT), install on the
// target (ESWPINSECS/ESWPIN) and verify + unfreeze (EMIGRATEDONE). The
// ESWPOUT and ESWPIN loops run as a bounded producer/consumer pipeline, so
// sealing page k overlaps installing page k-1. The enclave's threads —
// including ones interrupted mid-ecall — resume from their SSA contexts on
// the target with plain ERESUME. Returns the adopted target runtime.
func MigrateTransparent(src *enclave.Runtime, dstP *Platform, dep *core.Deployment) (_ *enclave.Runtime, err error) {
	srcM := src.Machine()
	dstM := dstP.Host.Mgr.Machine()
	eid := src.EnclaveID()

	mig := dstP.Trace.Child("hwext.migrate", telemetry.String("enclave", dep.App.Name))
	defer func() { mig.Fail(err) }()
	met := dstP.Metrics
	qGauge := met.Gauge("hwext.swapq.chunks")
	sealedCtr := met.Counter("hwext.pages.sealed")
	installCtr := met.Counter("hwext.pages.installed")

	// The extension requires full residency (the driver pages everything in
	// first; evicted pages could instead travel via ECHANGEOUT/ECHANGEIN).
	if err := src.Host().Mgr.EnsureResident(eid); err != nil {
		return nil, err
	}
	if err := srcM.EMIGRATE(eid); err != nil {
		return nil, fmt.Errorf("hwext: EMIGRATE: %w", err)
	}
	secs, err := srcM.ESWPOUTSECS(eid)
	if err != nil {
		return nil, fmt.Errorf("hwext: ESWPOUTSECS: %w", err)
	}
	lins, err := srcM.ResidentPages(eid)
	if err != nil {
		return nil, err
	}
	sort.Slice(lins, func(i, j int) bool { return lins[i] < lins[j] })
	mig.Annotate(telemetry.Int("pages", len(lins)))

	// Producer: seal pages in chunks. It parks when the queue is full and
	// reports its outcome exactly once on prodErr.
	chunks := make(chan []*sgx.MigratedPage, swapStreamQueue)
	prodErr := make(chan error, 1)
	outSp := mig.Fork("hwext.eswpout")
	go func() {
		defer close(chunks)
		batch := getSwapBatch()
		for _, lin := range lins {
			mp, err := srcM.ESWPOUT(eid, lin)
			if err != nil {
				e := fmt.Errorf("hwext: ESWPOUT page %d: %w", lin, err)
				outSp.Fail(e)
				putSwapBatch(batch)
				prodErr <- e
				return
			}
			batch = append(batch, mp)
			if len(batch) == swapChunkPages {
				chunks <- batch
				sealedCtr.Add(swapChunkPages)
				qGauge.Set(int64(len(chunks)))
				batch = getSwapBatch()
			}
		}
		if len(batch) > 0 {
			chunks <- batch
			sealedCtr.Add(int64(len(batch)))
			qGauge.Set(int64(len(chunks)))
		} else {
			putSwapBatch(batch)
		}
		outSp.End()
		prodErr <- nil
	}()
	// fail drains the stream so the producer never stays parked on a dead
	// consumer, then waits for it to finish.
	fail := func(err error) (*enclave.Runtime, error) {
		for b := range chunks {
			putSwapBatch(b)
		}
		<-prodErr
		return nil, err
	}

	// Consumer: install chunks on the target as they arrive. The deferred
	// End keeps the span balanced on the fail paths; success ends it
	// explicitly once the stream is fully applied.
	inSp := mig.Child("hwext.eswpin")
	defer inSp.End()
	secsFrame, err := dstP.Host.Mgr.AllocFrame()
	if err != nil {
		return fail(err)
	}
	eid2, err := dstM.ESWPINSECS(secsFrame, secs, enclave.ProgramFor(dep.App))
	if err != nil {
		dstP.Host.Mgr.ReturnFrame(secsFrame)
		return fail(fmt.Errorf("hwext: ESWPINSECS: %w", err))
	}
	// Frames the manager's page table does not cover (SECS, TCS) belong to
	// the adopted runtime; until adoption, cleanupTarget owns them.
	extra := []sgx.FrameIndex{secsFrame}
	cleanupTarget := func() {
		_ = dstM.DestroyEnclave(eid2)
		dstP.Host.Mgr.ForgetEnclave(eid2)
		for _, fr := range extra {
			dstP.Host.Mgr.ReturnFrame(fr)
		}
	}
	for batch := range chunks {
		for _, mp := range batch {
			f, err := dstP.Host.Mgr.AllocFrame()
			if err != nil {
				putSwapBatch(batch)
				cleanupTarget()
				return fail(err)
			}
			if err := dstM.ESWPIN(f, eid2, mp); err != nil {
				dstP.Host.Mgr.ReturnFrame(f)
				putSwapBatch(batch)
				cleanupTarget()
				return fail(fmt.Errorf("hwext: ESWPIN page %d: %w", mp.Lin, err))
			}
			if mp.Type == sgx.PTReg {
				dstP.Host.Mgr.NotePage(eid2, mp.Lin, f)
			} else {
				extra = append(extra, f)
			}
		}
		installCtr.Add(int64(len(batch)))
		qGauge.Set(int64(len(chunks)))
		putSwapBatch(batch)
	}
	if err := <-prodErr; err != nil {
		cleanupTarget()
		return nil, err
	}
	inSp.End()
	if err := dstM.EMIGRATEDONE(eid2); err != nil {
		cleanupTarget()
		return nil, fmt.Errorf("hwext: EMIGRATEDONE: %w", err)
	}

	// The source instance stays frozen forever (single-instance property at
	// the hardware level) and its EPC is reclaimed — Destroy also returns
	// the SECS/TCS frames the manager's page table does not cover, which
	// the old inline teardown (DestroyEnclave/Unregister/ForgetEnclave)
	// used to leak.
	_ = src.Destroy()

	return enclave.Adopt(dstP.Host, dep.App, eid2, dep.Sig.Measurement, extra...)
}

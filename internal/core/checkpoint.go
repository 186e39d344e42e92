package core

import (
	"fmt"

	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/tcb"
)

// quoteBinding is the report-data value that ties a quote to a DH exchange.
func quoteBinding(dh tcb.DHPublic, nonce [32]byte) sgx.ReportData {
	return sgx.HashToReportData(tcb.HashConcat(dh[:], nonce[:]))
}

// Owner-keyed checkpoint/resume (paper Sec. V-C): unlike migration, these
// operations involve the enclave owner — the checkpoint is encrypted under
// a key the owner provides and resume requires a fresh attested delivery of
// that key, so every operation lands in the owner's audit log and rollback
// attempts become visible.

// OwnerCheckpoint takes an audited checkpoint of a running enclave and lets
// it continue running (a cloud snapshot). The enclave must have been
// provisioned by the owner.
func OwnerCheckpoint(o *Owner, rt *enclave.Runtime) ([]byte, error) {
	if err := o.DeliverKencrypt(rt); err != nil {
		return nil, fmt.Errorf("core: deliver kencrypt: %w", err)
	}
	opts := &Options{Service: o.service}
	rt.RequestMigration()
	if _, err := rt.CtlCall(enclave.SelCtlMigrateBegin); err != nil {
		rt.EndMigration()
		return nil, fmt.Errorf("core: checkpoint begin: %w", err)
	}
	if err := awaitQuiescence(rt, opts); err != nil {
		_ = Cancel(rt)
		return nil, err
	}
	var blob []byte
	if _, err := streamDump(rt, rt.Shared(), enclave.SelCtlOwnerDump, func(total int) error {
		blob = make([]byte, total)
		return nil
	}, func(off, end int) error {
		return rt.Shared().Load(enclave.SharedCkptOff+uint64(off), blob[off:end])
	}); err != nil {
		_ = Cancel(rt)
		return nil, fmt.Errorf("core: owner dump: %w", err)
	}
	o.logOp("checkpoint", rt.Measurement(), rt.Machine().AttestationPublic())
	// Snapshot done; let the enclave continue running.
	if err := Cancel(rt); err != nil {
		return nil, err
	}
	return blob, nil
}

// OwnerResume restores an owner-keyed checkpoint into a fresh enclave on
// host. The owner attests the new instance, delivers Kencrypt, and logs the
// operation; the in-flight ecall completions arrive on Incoming.Results.
func OwnerResume(o *Owner, host *enclave.Host, dep *Deployment, blob []byte) (*Incoming, error) {
	hdr, _, err := enclave.UnmarshalHeader(blob)
	if err != nil {
		return nil, err
	}
	if !hdr.OwnerKeyed {
		return nil, fmt.Errorf("core: checkpoint is not owner-keyed")
	}
	rt, err := ownerTarget(o, host, dep)
	if err != nil {
		return nil, err
	}
	// Any failure between the build and a successful restore must free the
	// fresh instance's EPC (the same leak class MigrateIn had).
	fail := func(err error) (*Incoming, error) {
		destroyQuietly(rt)
		return nil, err
	}
	if err := rt.WriteShared(enclave.SharedCkptOff, blob); err != nil {
		return fail(err)
	}
	inc, err := restore(rt, rt.Shared(), hdr, len(blob), true, &Options{Service: o.service})
	if err != nil {
		return fail(err)
	}
	o.logOp("resume", rt.Measurement(), rt.Machine().AttestationPublic())
	return inc, nil
}

// ownerTarget builds a fresh instance of dep's image on host; the owner
// attests it and delivers Kencrypt bound to its exchange. The result is a
// virgin enclave ready to restore an owner-keyed checkpoint staged in its
// checkpoint window. On failure nothing is left built.
func ownerTarget(o *Owner, host *enclave.Host, dep *Deployment) (*enclave.Runtime, error) {
	rt, err := enclave.BuildSigned(host, dep.App, dep.Sig)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*enclave.Runtime, error) {
		destroyQuietly(rt)
		return nil, err
	}
	// Begin the target exchange; the owner attests the fresh instance and
	// delivers Kencrypt bound to that exchange.
	res, err := rt.CtlCall(enclave.SelCtlTgtBegin, enclave.SharedReqOff)
	if err != nil {
		return fail(fmt.Errorf("core: resume begin: %w", err))
	}
	out, err := rt.ReadShared(enclave.SharedReqOff, res[0])
	if err != nil {
		return fail(err)
	}
	report, err := enclave.UnmarshalReport(out[:enclave.ReportWireSize])
	if err != nil {
		return fail(err)
	}
	var enclaveDH tcb.DHPublic
	var nonce [32]byte
	copy(enclaveDH[:], out[enclave.ReportWireSize:])
	copy(nonce[:], out[enclave.ReportWireSize+32:])

	quote, err := rt.Machine().QuoteReport(report)
	if err != nil {
		return fail(err)
	}
	if err := o.attestQuote(quote, rt.Measurement()); err != nil {
		return fail(err)
	}
	if quote.Data != quoteBinding(enclaveDH, nonce) {
		return fail(fmt.Errorf("core: resume quote does not bind the exchange"))
	}
	if err := o.deliverKencryptForResume(rt, enclaveDH, nonce); err != nil {
		return fail(err)
	}
	return rt, nil
}

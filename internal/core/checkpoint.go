package core

import (
	"fmt"

	"repro/internal/enclave"
)

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
	if _, err := Prepare(rt, opts); err != nil {
		return nil, err
	}
	blob, _, err := dumpBytes(rt, enclave.SelCtlOwnerDump, opts)
	if err != nil {
		_ = Cancel(rt)
		return nil, err
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
		_ = rt.Destroy()
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
// attests it and delivers Kencrypt bound to the exchange its ctlTgtBegin
// starts. The result is a virgin enclave ready to restore an owner-keyed
// checkpoint staged in its checkpoint window. On failure nothing is left
// built.
func ownerTarget(o *Owner, host *enclave.Host, dep *Deployment) (*enclave.Runtime, error) {
	rt, err := enclave.BuildSigned(host, dep.App, dep.Sig)
	if err != nil {
		return nil, err
	}
	if err := o.exchange(rt, enclave.SelCtlTgtBegin, enclave.SelCtlOwnerKey, [32]byte(o.kencrypt), "kencrypt"); err != nil {
		_ = rt.Destroy()
		return nil, err
	}
	return rt, nil
}

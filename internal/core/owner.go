// Package core implements the paper's primary contribution: secure live
// migration of SGX enclaves between untrusted machines. It orchestrates the
// in-enclave mechanisms provided by the SDK (two-phase checkpointing,
// in-enclave CSSA tracking, the secure channel, self-destroy) from the
// completely untrusted host side, and provides the enclave owner's role
// (provisioning, attestation, audited checkpoint/resume).
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/tcb"
)

// Owner errors.
var (
	ErrWrongEnclave = errors.New("core: attested enclave does not match the owner's image")
)

// AuditRecord logs one owner-keyed checkpoint or resume operation
// (Sec. V-C: "all the checkpoint/resume operations are logged. By auditing
// the log, an owner can check suspicious rollbacks").
type AuditRecord struct {
	Time        time.Time
	Op          string // "checkpoint" | "resume"
	Measurement [32]byte
	Machine     tcb.PublicKey
}

// Owner is the enclave owner: the party that signs enclave images, attests
// freshly launched enclaves, and provisions them with the identity private
// key whose public half is embedded in the image.
type Owner struct {
	mu sync.Mutex

	signer        *tcb.SigningIdentity
	enclaveSeed   [tcb.SeedSize]byte
	enclavePublic tcb.PublicKey // enclaveSeed's public key
	service       *attest.Service
	kencrypt      tcb.Key
	audit         []AuditRecord // guarded by mu
}

// NewOwner creates an owner registered against the attestation service.
func NewOwner(service *attest.Service) (*Owner, error) {
	signerSeed, err := tcb.RandomSeed()
	if err != nil {
		return nil, err
	}
	seed, err := tcb.RandomSeed()
	if err != nil {
		return nil, err
	}
	kenc, err := tcb.RandomKey()
	if err != nil {
		return nil, err
	}
	return NewOwnerFromSeeds(service, signerSeed, seed, kenc), nil
}

// NewOwnerFromSeeds creates an owner with deterministic identities — used
// by the multi-process tools so independent host daemons agree on the
// owner's keys via a shared deployment secret.
func NewOwnerFromSeeds(service *attest.Service, signerSeed, enclaveSeed [tcb.SeedSize]byte, kencrypt tcb.Key) *Owner {
	return &Owner{
		signer:        tcb.NewSigningIdentityFromSeed(signerSeed),
		enclaveSeed:   enclaveSeed,
		enclavePublic: tcb.NewSigningIdentityFromSeed(enclaveSeed).Public(),
		service:       service,
		kencrypt:      kencrypt,
	}
}

// Signer returns the image-signing identity (SIGSTRUCT authority).
func (o *Owner) Signer() *tcb.SigningIdentity { return o.signer }

// EnclavePublic returns the identity public key embedded in images.
func (o *Owner) EnclavePublic() tcb.PublicKey { return o.enclavePublic }

// Service returns the attestation service the owner uses.
func (o *Owner) Service() *attest.Service { return o.service }

// Audit returns a copy of the audit log.
func (o *Owner) Audit() []AuditRecord {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]AuditRecord, len(o.audit))
	copy(out, o.audit)
	return out
}

func (o *Owner) logOp(op string, mr [32]byte, machine tcb.PublicKey) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.audit = append(o.audit, AuditRecord{Time: time.Now(), Op: op, Measurement: mr, Machine: machine})
}

// ConfigureApp embeds the owner's public keys into an application before it
// is built (they are part of the measured image).
func (o *Owner) ConfigureApp(app *enclave.App) {
	app.EnclavePublic = o.EnclavePublic()
	app.ServicePublic = o.service.Public()
}

// attestQuote verifies a quote end-to-end: service verdict plus expected
// measurement.
func (o *Owner) attestQuote(q sgx.Quote, wantMR [32]byte) error {
	verdict, err := o.service.Attest(q)
	if err != nil {
		return fmt.Errorf("core: attestation service: %w", err)
	}
	if err := attest.VerifyVerdict(o.service.Public(), q, verdict); err != nil {
		return err
	}
	if q.Measurement != wantMR {
		return ErrWrongEnclave
	}
	return nil
}

// exchange runs one owner→enclave attested DH exchange: the enclave's
// initSel call emits a QE report binding a fresh DH key and nonce
// (ctlProvisionInit on a running enclave, ctlTgtBegin on a virgin one); the
// owner attests it and seals a 32-byte secret to the exchange for doneSel.
func (o *Owner) exchange(rt *enclave.Runtime, initSel uint64, doneSel uint64, secret [32]byte, aadLabel string) error {
	res, err := rt.CtlCall(initSel, enclave.SharedReqOff)
	if err != nil {
		return fmt.Errorf("core: exchange init: %w", err)
	}
	quote, dhNonce, err := QuoteExchange(rt, res[0])
	if err != nil {
		return err
	}
	var enclaveDH tcb.DHPublic
	var nonce [32]byte
	copy(enclaveDH[:], dhNonce)
	copy(nonce[:], dhNonce[32:])
	if err := o.attestQuote(quote, rt.Measurement()); err != nil {
		return err
	}
	if quote.Data != sgx.HashToReportData(tcb.HashConcat(enclaveDH[:], nonce[:])) {
		return fmt.Errorf("core: quote does not bind the DH exchange")
	}

	kp, err := tcb.NewDHKeyPair()
	if err != nil {
		return err
	}
	shared, err := kp.Shared(enclaveDH, "provision")
	if err != nil {
		return err
	}
	sealed, err := tcb.Seal(shared, secret[:], append([]byte(aadLabel), nonce[:]...))
	if err != nil {
		return err
	}
	pub := kp.Public()
	msg := append(pub[:], sealed...)
	if err := rt.WriteShared(enclave.SharedReqOff, msg); err != nil {
		return err
	}
	if _, err := rt.CtlCall(doneSel, enclave.SharedReqOff, uint64(len(msg))); err != nil {
		return fmt.Errorf("core: exchange finish: %w", err)
	}
	return nil
}

// Provision attests a freshly launched enclave and delivers its identity
// private key (the boot-time flow of Sec. II-A: "After launched
// successfully, the enclave can contact its owner to get the sensitive
// data").
func (o *Owner) Provision(rt *enclave.Runtime) error {
	return o.exchange(rt, enclave.SelCtlProvisionInit, enclave.SelCtlProvisionDone, o.enclaveSeed, "enclave-priv")
}

// DeliverKencrypt installs the owner's checkpoint key for Sec. V-C
// owner-keyed checkpoint/resume into a running enclave.
func (o *Owner) DeliverKencrypt(rt *enclave.Runtime) error {
	return o.exchange(rt, enclave.SelCtlProvisionInit, enclave.SelCtlOwnerKey, [32]byte(o.kencrypt), "kencrypt")
}

package core

import (
	"fmt"

	"repro/internal/attest"
	"repro/internal/enclave"
	"repro/internal/sgx"
)

// Lower-level protocol helpers, exposed for the attack harness, the agent
// path and the hardware-extension comparison — they let callers compose the
// channel steps without a Transport.

// TargetHello runs ctlTgtBegin on a virgin enclave and returns the hello
// blob: quote(224) || dhpub(32) || nonce(32).
func TargetHello(rt *enclave.Runtime) ([]byte, error) {
	res, err := rt.CtlCall(enclave.SelCtlTgtBegin, enclave.SharedReqOff)
	if err != nil {
		return nil, fmt.Errorf("core: target begin: %w", err)
	}
	quote, dhNonce, err := QuoteExchange(rt, res[0])
	if err != nil {
		return nil, err
	}
	return append(enclave.MarshalQuote(quote), dhNonce...), nil
}

// QuoteExchange reads the n-byte output an enclave's begin call left at the
// shared request area — report(192) || dhpub(32) || nonce(32), the report
// targeted at the quoting enclave and binding the DH half and nonce — and
// has the machine's quoting enclave quote the report. It returns the quote
// and the dhpub || nonce that followed the report. Every attested exchange
// starts here: target hello, owner provisioning and Kencrypt delivery, the
// agent's hello and the hardware-extension control enclaves'.
func QuoteExchange(rt *enclave.Runtime, n uint64) (sgx.Quote, []byte, error) {
	out, err := rt.ReadShared(enclave.SharedReqOff, n)
	if err != nil {
		return sgx.Quote{}, nil, err
	}
	if len(out) < enclave.ReportWireSize+64 {
		return sgx.Quote{}, nil, fmt.Errorf("core: short exchange blob")
	}
	report, err := enclave.UnmarshalReport(out[:enclave.ReportWireSize])
	if err != nil {
		return sgx.Quote{}, nil, err
	}
	quote, err := rt.Machine().QuoteReport(report)
	if err != nil {
		return sgx.Quote{}, nil, fmt.Errorf("core: quoting enclave: %w", err)
	}
	return quote, out[enclave.ReportWireSize:], nil
}

// SourceChannel feeds a target (or agent) hello through the source control
// thread and returns the channel response (srcpub || sig). The source
// enclave enforces the single-channel rule internally.
func SourceChannel(src *enclave.Runtime, service *attest.Service, hello []byte) ([]byte, error) {
	return sourceChannel(src, service, hello)
}

// ReleaseKey has the source self-destroy and then release Kmigrate,
// strictly in that order (Sec. V-B), and returns the sealed key blob.
// released reports whether the in-enclave release ran: from then on the
// instance is gone and the runtime is marked dead, even if reading the key
// fails.
func ReleaseKey(src *enclave.Runtime) (sealed []byte, released bool, err error) {
	res, err := src.CtlCall(enclave.SelCtlSrcRelease, enclave.SharedReqOff)
	if err != nil {
		return nil, false, fmt.Errorf("core: key release: %w", err)
	}
	src.MarkDead()
	sealed, err = src.ReadShared(enclave.SharedReqOff, res[0])
	return sealed, true, err
}

// EstablishChannel runs the complete channel + key delivery between a
// prepared/dumped source and a virgin target enclave (both reachable in
// process). Used by white-box tests; the Transport-based drivers are the
// production path.
func EstablishChannel(src, tgt *enclave.Runtime, service *attest.Service) error {
	hello, err := TargetHello(tgt)
	if err != nil {
		return err
	}
	chanOut, err := SourceChannel(src, service, hello)
	if err != nil {
		return err
	}
	if err := writeAndCall(tgt, enclave.SelCtlTgtChannel, chanOut); err != nil {
		return fmt.Errorf("core: target channel: %w", err)
	}
	sealed, _, err := ReleaseKey(src)
	if err != nil {
		return err
	}
	if err := writeAndCall(tgt, enclave.SelCtlTgtKey, sealed); err != nil {
		return fmt.Errorf("core: target key: %w", err)
	}
	return nil
}

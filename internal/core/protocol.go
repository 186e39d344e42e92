package core

import (
	"fmt"

	"repro/internal/attest"
	"repro/internal/enclave"
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
	out, err := rt.ReadShared(enclave.SharedReqOff, res[0])
	if err != nil {
		return nil, err
	}
	report, err := enclave.UnmarshalReport(out[:enclave.ReportWireSize])
	if err != nil {
		return nil, err
	}
	quote, err := rt.Machine().QuoteReport(report)
	if err != nil {
		return nil, fmt.Errorf("core: quoting enclave: %w", err)
	}
	return append(enclave.MarshalQuote(quote), out[enclave.ReportWireSize:]...), nil
}

// SourceChannel feeds a target (or agent) hello through the source control
// thread and returns the channel response (srcpub || sig). The source
// enclave enforces the single-channel rule internally.
func SourceChannel(src *enclave.Runtime, service *attest.Service, hello []byte) ([]byte, error) {
	return sourceChannel(src, service, hello)
}

// ReleaseKey triggers self-destroy + Kmigrate release on the source,
// returning the sealed key blob. The source is marked dead, as Release
// marks it.
func ReleaseKey(src *enclave.Runtime) ([]byte, error) {
	res, err := src.CtlCall(enclave.SelCtlSrcRelease, enclave.SharedReqOff)
	if err != nil {
		return nil, fmt.Errorf("core: key release: %w", err)
	}
	src.MarkDead()
	return src.ReadShared(enclave.SharedReqOff, res[0])
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
	sealed, err := ReleaseKey(src)
	if err != nil {
		return err
	}
	if err := writeAndCall(tgt, enclave.SelCtlTgtKey, sealed); err != nil {
		return fmt.Errorf("core: target key: %w", err)
	}
	return nil
}

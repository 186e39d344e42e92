package core

import (
	"fmt"

	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/tcb"
)

// The agent enclave (paper Sec. VI-D "An Optimization of Remote
// Attestation"): a small enclave the developer deploys on the target
// machine ahead of a migration. The source control thread attests it and
// hands it Kmigrate *before* the VM's downtime window; when the migrated
// enclaves come up on the target they fetch their keys from the agent via
// local attestation, hiding the attestation-service round trips.

// Agent enclave-memory layout (data region, page-relative offsets).
const (
	agentOffDHSeed = 0
	agentOffNonce  = 32
	agentOffKey    = 64
	agentOffKeyOK  = 96
	agentOffServed = 104
)

// Agent ecall selectors.
const (
	agentSelBegin   = 0
	agentSelReceive = 1
	agentSelDeliver = 2
)

// NewAgentApp builds the agent enclave application for an owner.
func NewAgentApp(owner *Owner) *enclave.App {
	app := &enclave.App{
		Name:        "sgxmig-agent",
		CodeVersion: "v1",
		Workers:     1,
		DataPages:   1,
		HeapPages:   1,
		ECalls:      []enclave.ECallFn{agentBegin, agentReceive, agentDeliver},
	}
	owner.ConfigureApp(app)
	return app
}

// agentBegin (trusted): generate the DH half + nonce and emit a QE-targeted
// report so the remote source enclave can attest this agent.
// Output at shared[R1]: report(192) || dhpub(32) || nonce(32); R0 = length.
func agentBegin(c *enclave.Call) enclave.AppStatus {
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
	if c.Store(base+agentOffDHSeed, seed[:]) != nil || c.Store(base+agentOffNonce, nonce[:]) != nil {
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

// agentReceive (trusted): complete the channel with the source enclave and
// install Kmigrate. Input at shared[R1], length R2:
// srcpub(32) || sig(64) || sealedKmigrate...
func agentReceive(c *enclave.Call) enclave.AppStatus {
	in := make([]byte, c.Regs[2])
	if len(in) < 96+16 || c.OutsideLoad(c.Regs[1], in) != nil {
		return fail(c, 1)
	}
	var srcPub tcb.DHPublic
	var sig tcb.Signature
	copy(srcPub[:], in[:32])
	copy(sig[:], in[32:96])
	sealed := in[96:]

	base := c.DataBase()
	var seed [tcb.SeedSize]byte
	var nonce [32]byte
	if c.Load(base+agentOffDHSeed, seed[:]) != nil || c.Load(base+agentOffNonce, nonce[:]) != nil {
		return fail(c, 2)
	}
	kp, err := tcb.NewDHKeyPairFromSeed(seed)
	if err != nil {
		return fail(c, 3)
	}
	// The source authenticated itself with the enclave identity key whose
	// public half is embedded in this (and every) image of the owner.
	pub, err := enclavePublicOf(c)
	if err != nil {
		return fail(c, 4)
	}
	msg := enclave.ChannelSigMessage(srcPub, kp.Public(), nonce)
	if tcb.Verify(pub, msg, sig) != nil {
		return fail(c, 5)
	}
	session, err := kp.Shared(srcPub, "migration-channel")
	if err != nil {
		return fail(c, 6)
	}
	kb, err := tcb.Open(session, sealed, append([]byte("kmigrate-release"), nonce[:]...))
	if err != nil || len(kb) != tcb.KeySize {
		return fail(c, 7)
	}
	if c.Store(base+agentOffKey, kb) != nil {
		return fail(c, 8)
	}
	if c.Store64(base+agentOffKeyOK, 1) != nil || c.Store64(base+agentOffServed, 0) != nil {
		return fail(c, 9)
	}
	c.Regs[0] = 0
	return enclave.AppDone
}

// agentDeliver (trusted): deliver Kmigrate to exactly one local requester
// over local attestation. The requester proves, with a report targeted at
// this agent, that it is an enclave signed by the same owner; the agent
// replies with its own report targeted at the requester plus the key sealed
// to the requester's DH half. Input at shared[R1], length R2:
// report(192) || reqDH(32) || reqNonce(32).
// Output at shared[R1]: report2(192) || agentDH2(32) || sealed...
func agentDeliver(c *enclave.Call) enclave.AppStatus {
	in := make([]byte, c.Regs[2])
	if len(in) < enclave.ReportWireSize+64 || c.OutsideLoad(c.Regs[1], in) != nil {
		return fail(c, 1)
	}
	report, err := enclave.UnmarshalReport(in[:enclave.ReportWireSize])
	if err != nil {
		return fail(c, 2)
	}
	var reqDH tcb.DHPublic
	var reqNonce [32]byte
	copy(reqDH[:], in[enclave.ReportWireSize:])
	copy(reqNonce[:], in[enclave.ReportWireSize+32:])

	base := c.DataBase()
	if v, err := c.Load64(base + agentOffKeyOK); err != nil || v != 1 {
		return fail(c, 3)
	}
	// Single delivery: handing the key to two enclaves would be a fork.
	if v, err := c.Load64(base + agentOffServed); err != nil || v != 0 {
		return fail(c, 4)
	}
	// Local attestation: the report must verify under our report key,
	// come from an enclave signed by our owner, and bind the DH exchange.
	if !c.VerifyReport(report) {
		return fail(c, 5)
	}
	if report.Signer != signerOf(c) {
		return fail(c, 6)
	}
	if report.Data != sgx.HashToReportData(tcb.HashConcat(reqDH[:], reqNonce[:])) {
		return fail(c, 7)
	}

	var key [tcb.KeySize]byte
	if c.Load(base+agentOffKey, key[:]) != nil {
		return fail(c, 8)
	}
	var seed2 [tcb.SeedSize]byte
	if c.ReadRandom(seed2[:]) != nil {
		return fail(c, 9)
	}
	kp2, err := tcb.NewDHKeyPairFromSeed(seed2)
	if err != nil {
		return fail(c, 10)
	}
	shared, err := kp2.Shared(reqDH, "agent-local-key")
	if err != nil {
		return fail(c, 11)
	}
	sealed, err := tcb.Seal(shared, key[:], append([]byte("agent-kmigrate"), reqNonce[:]...))
	if err != nil {
		return fail(c, 12)
	}
	pub2 := kp2.Public()
	report2 := c.EReport(report.Measurement, sgx.HashToReportData(tcb.HashConcat(pub2[:], reqNonce[:])))
	out := enclave.MarshalReport(report2)
	out = append(out, pub2[:]...)
	out = append(out, sealed...)
	if c.OutsideStore(c.Regs[1], out) != nil {
		return fail(c, 13)
	}
	if c.Store64(base+agentOffServed, 1) != nil {
		return fail(c, 14)
	}
	c.Regs[0] = uint64(len(out))
	c.Regs[1] = 0
	return enclave.AppDone
}

func fail(c *enclave.Call, code uint64) enclave.AppStatus {
	c.Regs[0] = 0
	c.Regs[1] = code
	return enclave.AppDone
}

// enclavePublicOf reads the embedded owner public key. Trusted app code can
// see its own app config through the measured program, but the Call API
// deliberately does not expose the App struct; the agent instead carries the
// key in its data region? No: the key IS part of the measured image config.
// We surface it via the signer hash check plus this helper backed by the
// call's app reference.
func enclavePublicOf(c *enclave.Call) (tcb.PublicKey, error) {
	return c.AppEnclavePublic()
}

func signerOf(c *enclave.Call) [32]byte {
	return c.AppSigner()
}

// AgentSession is the untrusted orchestration handle for one agent enclave
// on a target machine.
type AgentSession struct {
	rt          *enclave.Runtime
	measurement [32]byte
	hello       []byte // quote(224) || dhpub(32) || nonce(32)
	channelOut  []byte // srcpub || sig once pre-established
}

// StartAgent builds the agent enclave on the target host and produces its
// attestation hello.
func StartAgent(host *enclave.Host, owner *Owner) (*AgentSession, error) {
	app := NewAgentApp(owner)
	rt, err := enclave.Build(host, app, owner.Signer())
	if err != nil {
		return nil, fmt.Errorf("core: build agent: %w", err)
	}
	res, err := rt.ECall(0, agentSelBegin, enclave.SharedReqOff)
	if err != nil {
		return nil, fmt.Errorf("core: agent begin: %w", err)
	}
	quote, dhNonce, err := QuoteExchange(rt, res[0])
	if err != nil {
		return nil, err
	}
	hello := append(enclave.MarshalQuote(quote), dhNonce...)
	return &AgentSession{rt: rt, measurement: rt.Measurement(), hello: hello}, nil
}

// Runtime returns the agent's enclave runtime.
func (a *AgentSession) Runtime() *enclave.Runtime { return a.rt }

// Measurement returns the agent enclave's MRENCLAVE (embedded into main
// apps as App.AgentMeasurement).
func (a *AgentSession) Measurement() [32]byte { return a.measurement }

// PreEstablish builds the source enclave's one secure channel to this agent
// before the migration window, hiding the attestation round trips from the
// downtime path.
func (a *AgentSession) PreEstablish(src *enclave.Runtime, opts *Options) error {
	if a.channelOut != nil {
		return nil
	}
	out, err := sourceChannel(src, opts.Service, a.hello)
	if err != nil {
		return fmt.Errorf("core: agent pre-establish: %w", err)
	}
	a.channelOut = out
	return nil
}

// InstallKey hands the released key blob to the agent enclave.
func (a *AgentSession) InstallKey(blob []byte) error {
	if err := a.rt.WriteShared(enclave.SharedReqOff, blob); err != nil {
		return err
	}
	res, err := a.rt.ECall(0, agentSelReceive, enclave.SharedReqOff, uint64(len(blob)))
	if err != nil {
		return err
	}
	if res[1] != 0 {
		return fmt.Errorf("core: agent rejected key (step %d)", res[1])
	}
	return nil
}

// targetKeyFromAgent has the restoring target enclave fetch Kmigrate from
// the agent via local attestation.
func targetKeyFromAgent(rt *enclave.Runtime, a *AgentSession) error {
	// Target begins its exchange with a report targeted at the agent.
	res, err := rt.CtlCall(enclave.SelCtlTgtBegin, enclave.SharedReqOff, 1 /* target the agent */)
	if err != nil {
		return fmt.Errorf("core: target begin (agent): %w", err)
	}
	req, err := rt.ReadShared(enclave.SharedReqOff, res[0])
	if err != nil {
		return err
	}
	// Hand the request to the agent.
	if err := a.rt.WriteShared(enclave.SharedReqOff, req); err != nil {
		return err
	}
	ares, err := a.rt.ECall(0, agentSelDeliver, enclave.SharedReqOff, uint64(len(req)))
	if err != nil {
		return fmt.Errorf("core: agent deliver: %w", err)
	}
	if ares[0] == 0 {
		return fmt.Errorf("core: agent refused delivery (step %d)", ares[1])
	}
	out, err := a.rt.ReadShared(enclave.SharedReqOff, ares[0])
	if err != nil {
		return err
	}
	// Install into the target enclave.
	if err := writeAndCall(rt, enclave.SelCtlTgtKeyLocal, out); err != nil {
		return fmt.Errorf("core: install local key: %w", err)
	}
	return nil
}

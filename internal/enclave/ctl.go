package enclave

import (
	"encoding/binary"
	"errors"

	"repro/internal/attest"
	"repro/internal/sgx"
	"repro/internal/tcb"
)

// Control-thread operations: everything in this file executes INSIDE the
// enclave (it is part of the measured Program), on the SDK-injected control
// thread (tid 0). It implements the paper's core mechanisms:
//
//   - two-phase checkpointing (Sec. IV-B)
//   - checkpoint generation with in-enclave authenticated encryption (Sec. IV)
//   - the secure migration channel with mutual authentication (Sec. V-B)
//   - self-destroy and the single-channel rule (Sec. V-B)
//   - restore with in-enclave CSSA verification (Sec. III step 3-4, IV-C)
//   - owner-keyed checkpoint/resume with audit counting (Sec. V-C)
//
// Inputs arrive through untrusted shared memory and are validated here;
// outputs leave as ciphertext or public protocol values only.

func (p *program) ctlStep(env *sgx.Env, ctx *sgx.Context, sel uint64) sgx.Status {
	switch sel {
	case SelCtlStatus:
		ctx.R[0] = ld64(env, offState)
		ctx.R[1] = ld64(env, offGlobalFlag)
		ctx.R[2] = ld64(env, offChanState)
		ctx.R[3] = ld64(env, offAuditCount)
		ctx.R[4] = ld64(env, offDumpDone)
		ctx.R[5] = ld64(env, offRestored)
		return p.exit(env, ctx, codeDone, 0)
	case SelCtlSetCipher:
		if ld64(env, offState) != stNormal {
			return p.exit(env, ctx, codeErr, errBadState)
		}
		st64(env, offCipherSel, ctx.R[1])
		return p.exit(env, ctx, codeDone, 0)
	case SelCtlMigrateBegin:
		return p.ctlMigrateBegin(env, ctx)
	case SelCtlMigratePoll:
		return p.ctlMigratePoll(env, ctx)
	case SelCtlMigrateDump:
		return p.ctlDump(env, ctx, dumpModeMigrate)
	case SelCtlDumpNaive:
		return p.ctlDump(env, ctx, dumpModeNaive)
	case SelCtlOwnerDump:
		return p.ctlDump(env, ctx, dumpModeOwner)
	case SelCtlSrcChannel:
		return p.ctlSrcChannel(env, ctx)
	case SelCtlSrcRelease:
		return p.ctlSrcRelease(env, ctx)
	case SelCtlSrcCancel:
		return p.ctlSrcCancel(env, ctx)
	case SelCtlTgtBegin:
		return p.ctlTgtBegin(env, ctx)
	case SelCtlTgtChannel:
		return p.ctlTgtChannel(env, ctx)
	case SelCtlTgtKey:
		return p.ctlTgtKey(env, ctx)
	case SelCtlTgtKeyLocal:
		return p.ctlTgtKeyLocal(env, ctx)
	case SelCtlTgtRestore:
		return p.ctlTgtRestore(env, ctx)
	case SelCtlTgtVerify:
		return p.ctlTgtVerify(env, ctx)
	case SelCtlProvisionInit:
		return p.ctlProvisionInit(env, ctx)
	case SelCtlProvisionDone:
		return p.ctlProvisionDone(env, ctx)
	case SelCtlOwnerKey:
		return p.ctlOwnerKey(env, ctx)
	default:
		return p.exit(env, ctx, codeErr, errBadSelector)
	}
}

// --- small helpers over control-page key material ---

func ldKey(env *sgx.Env, off uint64) tcb.Key {
	var k tcb.Key
	if err := env.Load(off, k[:]); err != nil {
		panic(err)
	}
	return k
}

func stKey(env *sgx.Env, off uint64, k tcb.Key) {
	if err := env.Store(off, k[:]); err != nil {
		panic(err)
	}
}

func ldSeed(env *sgx.Env, off uint64) [tcb.SeedSize]byte {
	var s [tcb.SeedSize]byte
	if err := env.Load(off, s[:]); err != nil {
		panic(err)
	}
	return s
}

func stSeed(env *sgx.Env, off uint64, s [tcb.SeedSize]byte) {
	if err := env.Store(off, s[:]); err != nil {
		panic(err)
	}
}

// readIn copies a length-bounded input blob from untrusted shared memory
// (offset in R1, length in R2).
func readIn(env *sgx.Env, ctx *sgx.Context, maxLen uint64) ([]byte, bool) {
	off, n := ctx.R[1], ctx.R[2]
	if n == 0 || n > maxLen {
		return nil, false
	}
	buf := make([]byte, n)
	if err := env.OutsideLoad(off, buf); err != nil {
		return nil, false
	}
	return buf, true
}

// writeOut copies an output blob to untrusted shared memory at R1 and
// reports its length in R0.
func writeOut(env *sgx.Env, ctx *sgx.Context, out []byte) bool {
	if err := env.OutsideStore(ctx.R[1], out); err != nil {
		return false
	}
	ctx.R[0] = uint64(len(out))
	return true
}

// --- two-phase checkpointing ---

// ctlMigrateBegin is phase 1: raise the global flag. Workers entering the
// enclave will park in the spin region; running workers reach it through
// AEX + handler entry driven by the (untrusted) runtime.
func (p *program) ctlMigrateBegin(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) != stNormal {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	st64(env, offState, stMigrating)
	st64(env, offGlobalFlag, 1)
	st64(env, offDumpDone, 0)
	return p.exit(env, ctx, codeDone, 0)
}

// ctlMigratePoll reports in R0 whether every worker thread has reached a
// safe state (free or spin) — the quiescent point. The control thread's
// caller loops on this; a lying OS cannot fake it because the flags live in
// enclave memory and are only written by the measured stubs (defeating the
// Fig. 3 data-consistency attack).
func (p *program) ctlMigratePoll(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) != stMigrating {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	ctx.R[0] = 1
	if !p.quiescent(env) {
		ctx.R[0] = 0
	}
	return p.exit(env, ctx, codeDone, 0)
}

func (p *program) quiescent(env *sgx.Env) bool {
	for tid := 1; tid < p.layout.Threads; tid++ {
		flag := ld64(env, threadSlot(tid)+thrLocalFlag)
		if flag != flagFree && flag != flagSpin {
			return false
		}
	}
	return true
}

// errEntered is a dump's page walk finding that a worker entered the
// enclave after the quiescent point; the dump refuses with errNotQuiescent.
var errEntered = errors.New("enclave: a worker entered during the dump")

// dumpQuiescent, if set, runs at a dump's quiescent point, once the thread
// table is recorded and before the page walk. Tests use it to enter a
// worker there; it is nil otherwise.
var dumpQuiescent func()

// entered reports whether any worker has entered the enclave since the
// dump recorded its thread table: its flag is no longer the recorded one or
// its entry epoch has moved past the snapshot.
func (p *program) entered(env *sgx.Env, flags []uint8) bool {
	for tid := 1; tid < p.layout.Threads; tid++ {
		slot := threadSlot(tid)
		if ld64(env, slot+thrLocalFlag) != uint64(flags[tid]) || ld64(env, slot+thrEpoch) != ld64(env, slot+thrMigEpoch) {
			return true
		}
	}
	return false
}

type dumpMode int

const (
	dumpModeMigrate dumpMode = iota + 1
	dumpModeOwner            // Sec. V-C: encrypt under owner's Kencrypt
	dumpModeNaive            // ablation: skip the quiescent-point check
)

// ctlDump is phase 2: at the quiescent point, walk the entire enclave
// address range, dump every readable page, encrypt it, and emit
// the ciphertext to untrusted memory (R1 = output offset; R0 returns the
// total length). TCS pages are skipped — they are recreated by enclave
// construction on the target, and their one live field (CSSA) is carried via
// the in-enclave tracking values (Sec. IV-C).
func (p *program) ctlDump(env *sgx.Env, ctx *sgx.Context, mode dumpMode) sgx.Status {
	if ld64(env, offState) != stMigrating {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	if mode != dumpModeNaive && !p.quiescent(env) {
		return p.exit(env, ctx, codeErr, errNotQuiescent)
	}

	// Record the CSSA rebuild target for every worker. A spin thread sits
	// in (or bounces in and out of) the handler it entered at CSSAEENTER;
	// the SSA frames 0..CSSAEENTER-1 hold the genuinely interrupted
	// contexts (they were saved before the handler entry and cannot change
	// while the thread spins), while the handler's own level is transient.
	// The target therefore rebuilds CSSA = CSSAEENTER and re-enters the
	// handler there — the paper's Sec. IV-C observation that the in-enclave
	// EENTER-reported value pins the real nesting depth, rendered at the
	// handler boundary. A spinner with CSSAEENTER == 0 parked at a fresh
	// entry before any context was saved: there is nothing to capture, so
	// it is recorded as free and its caller re-issues the request.
	threads := p.layout.Threads
	flags := make([]uint8, threads)
	migK := make([]uint32, threads)
	for tid := 1; tid < threads; tid++ {
		slot := threadSlot(tid)
		if mode == dumpModeNaive {
			// Ablation: model an SDK with no two-phase checkpointing at
			// all — no flags, no CSSA tracking. In-flight thread contexts
			// are silently dropped and memory is captured while threads
			// may still be mutating it (the Fig. 3 attack surface).
			st64(env, slot+thrLocalFlag, flagFree)
			st64(env, slot+thrMigK, 0)
			continue
		}
		flag := ld64(env, slot+thrLocalFlag)
		flags[tid] = uint8(flag)
		if flag == flagSpin {
			ce := ld64(env, slot+thrCSSAEnter)
			if ce == 0 {
				flags[tid] = flagFree
				st64(env, slot+thrLocalFlag, flagFree)
			} else {
				migK[tid] = uint32(ce)
			}
		}
		st64(env, slot+thrMigK, uint64(migK[tid]))
		// Snapshot the entry epoch: the target verification demands a
		// FRESH stub recording (epoch advanced past this snapshot), so a
		// host replaying the restored (stale) values cannot pass Step-4.
		st64(env, slot+thrMigEpoch, ld64(env, slot+thrEpoch))
	}
	if dumpQuiescent != nil {
		dumpQuiescent()
	}

	// Select the checkpoint key.
	var key tcb.Key
	ownerKeyed := mode == dumpModeOwner
	if ownerKeyed {
		if ld64(env, offKencryptOK) != 1 {
			return p.exit(env, ctx, codeErr, errNotProvisioned)
		}
		key = ldKey(env, offKencrypt)
		st64(env, offAuditCount, ld64(env, offAuditCount)+1)
	} else {
		var kb [32]byte
		if err := env.ReadRandom(kb[:]); err != nil {
			return p.exit(env, ctx, codeErr, errMemory)
		}
		key = tcb.Key(kb)
		stKey(env, offKmigrate, key)
		st64(env, offKmigrateOK, 1)
	}

	cipher := tcb.CheckpointCipher(ld64(env, offCipherSel))
	if cipher == 0 {
		cipher = tcb.CipherAESGCM
	}

	// Walk the enclave into one private buffer laid out as the checkpoint
	// leaves the enclave (sealCheckpoint). Every page is loaded straight into
	// its record and sealed there with its leaf, so the plaintext exists once
	// and only in enclave-private memory; the buffer is wiped when the dump
	// ends, however it ends. The host learns the checkpoint's
	// length first and then each stretch of the output window as the leaves
	// under it are sealed and copied out, so it can send them while the walk
	// goes on.
	var salt [tcb.SaltSize]byte
	if err := env.ReadRandom(salt[:]); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	hdr := MarshalHeader(CheckpointHeader{
		Measurement: env.Measurement(),
		TotalPages:  uint32(p.layout.TotalPages()),
		Threads:     uint32(threads),
		Cipher:      cipher,
		OwnerKeyed:  ownerKeyed,
		Salt:        salt,
		Flags:       flags,
		MigK:        migK,
	})
	g, err := newCkptGeometry(p.layout, cipher, ckptLeafRecords)
	if err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	sealer, err := tcb.NewLeafSealer(cipher, key, salt[:])
	if err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	if err := env.OutsideStore(SharedDumpLen, binary.LittleEndian.AppendUint64(nil, uint64(g.size()))); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	// Nothing stops a hostile host from entering a worker while the walk
	// runs, so once the last leaf is filled — the walk over, the final
	// record not yet sealed — the thread table is read again: a worker that
	// entered meanwhile fails the dump here, at the source, rather than the
	// target's CSSA verification.
	lin, leaf := 0, 0
	fill := func(rec []byte) error {
		for ; len(rec) > 0; lin++ {
			if p.layout.IsTCS(sgx.PageNum(lin)) {
				continue
			}
			binary.LittleEndian.PutUint32(rec, uint32(lin))
			if err := env.Load(sgx.Address(sgx.PageNum(lin), 0), rec[4:ckptRecord]); err != nil {
				return err
			}
			rec = rec[ckptRecord:]
		}
		if leaf++; leaf == g.leaves && mode != dumpModeNaive && p.entered(env, flags) {
			return errEntered
		}
		return nil
	}
	out := ctx.R[1]
	emit := func(off int, b []byte) error { return env.OutsideStore(out+uint64(off), b) }
	publish := func(n int) error {
		return env.OutsideStore(SharedDumpReady, binary.LittleEndian.AppendUint64(nil, uint64(n)))
	}
	switch err := sealCheckpoint(g, hdr, sealer, fill, emit, publish); {
	case errors.Is(err, errEntered):
		return p.exit(env, ctx, codeErr, errNotQuiescent)
	case err != nil:
		return p.exit(env, ctx, codeErr, errMemory)
	}
	// The source's DH half for the channel that follows (ctlSrcChannel) is
	// drawn now, while the host sends the last leaves: it needs no peer, and
	// drawn after the final record is sealed, it is in no checkpoint.
	var seed [tcb.SeedSize]byte
	if err := env.ReadRandom(seed[:]); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	if _, err := p.dh.build(seed); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	stSeed(env, offDHSeed, seed)
	ctx.R[0] = uint64(g.size())
	st64(env, offDumpDone, 1)
	return p.exit(env, ctx, codeDone, 0)
}

// ctlSrcCancel aborts a migration: delete Kmigrate immediately (the emitted
// checkpoint becomes useless), tear down channel state and the dump's DH
// half, and release the workers (paper Sec. V-B).
func (p *program) ctlSrcCancel(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) != stMigrating {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	stKey(env, offKmigrate, tcb.Key{})
	st64(env, offKmigrateOK, 0)
	stKey(env, offSession, tcb.Key{})
	st64(env, offSessionOK, 0)
	stSeed(env, offDHSeed, [tcb.SeedSize]byte{})
	p.dh.forget()
	st64(env, offChanState, chIdle)
	st64(env, offDumpDone, 0)
	st64(env, offGlobalFlag, 0)
	st64(env, offState, stNormal)
	return p.exit(env, ctx, codeDone, 0)
}

// --- the secure migration channel (Sec. V-B) ---

// ctlSrcChannel builds the source side of the one-and-only secure channel.
// Input (shared memory, R1/R2): quote(224) || verdict(64) || targetDH(32) ||
// nonce(32). The source authenticates the target by remote attestation
// (quote + service verdict verified against keys embedded in the image) and
// authenticates itself by signing with the owner-provisioned private key.
// Output: srcDH(32) || sig(64).
func (p *program) ctlSrcChannel(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if s := ld64(env, offState); s != stMigrating && s != stNormal {
		// stNormal is allowed so the channel to an agent enclave can be
		// pre-established before the migration window (Sec. VI-D: "During
		// a migration (or even before a migration), the source control
		// thread first remotely attests the agent enclave").
		return p.exit(env, ctx, codeErr, errBadState)
	}
	if ld64(env, offChanState) != chIdle {
		// "the source control thread ensures that it will use Diffie-
		// Hellman key exchange protocol to build only one secure channel
		// even if receiving many exchange requests from different targets"
		return p.exit(env, ctx, codeErr, errChannelUsed)
	}
	if ld64(env, offPrivOK) != 1 {
		return p.exit(env, ctx, codeErr, errNotProvisioned)
	}
	in, ok := readIn(env, ctx, 4096)
	if !ok || len(in) < QuoteWireSize+VerdictWire+32+32 {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	quote, err := UnmarshalQuote(in[:QuoteWireSize])
	if err != nil {
		return p.exit(env, ctx, codeErr, errAttestFailed)
	}
	verdict, err := UnmarshalVerdict(in[QuoteWireSize : QuoteWireSize+VerdictWire])
	if err != nil {
		return p.exit(env, ctx, codeErr, errAttestFailed)
	}
	var peerDH tcb.DHPublic
	var nonce [32]byte
	copy(peerDH[:], in[QuoteWireSize+VerdictWire:])
	copy(nonce[:], in[QuoteWireSize+VerdictWire+32:])

	// Attestation service verdict, verified against the embedded key.
	if err := attest.VerifyVerdict(p.app.ServicePublic, quote, verdict); err != nil {
		return p.exit(env, ctx, codeErr, errAttestFailed)
	}
	// The peer must run the same image (an identical virgin enclave) or the
	// developer's registered agent enclave (Sec. VI-D).
	own := env.Measurement()
	if quote.Measurement != own && (p.app.AgentMeasurement == [32]byte{} || quote.Measurement != p.app.AgentMeasurement) {
		return p.exit(env, ctx, codeErr, errAttestFailed)
	}
	// The quote must bind the DH key and nonce we were handed.
	wantData := sgx.HashToReportData(tcb.HashConcat(peerDH[:], nonce[:]))
	if quote.Data != wantData {
		return p.exit(env, ctx, codeErr, errAttestFailed)
	}

	// Our DH half, session key, and signature with the enclave identity key.
	// A dumped enclave's half is the one its dump drew; an enclave that
	// pre-establishes an agent channel before migrating draws one here.
	kp, err := p.srcDHKeyPair(env)
	if err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	session, err := kp.Shared(peerDH, "migration-channel")
	if err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	stKey(env, offSession, session)
	st64(env, offSessionOK, 1)
	if err := env.Store(offNonce, nonce[:]); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	ourPub := kp.Public()
	// ctlProvisionDone installed only a seed whose public key is the
	// image's EnclavePublic, so the pair needs no re-derivation.
	id := tcb.NewSigningIdentityFromPair(ldSeed(env, offPrivSeed), p.app.EnclavePublic)
	msg := channelSigMessage(ourPub, peerDH, nonce)
	sig := id.Sign(msg)

	st64(env, offChanState, chBuilt)
	out := make([]byte, 0, 32+64)
	out = append(out, ourPub[:]...)
	out = append(out, sig[:]...)
	if !writeOut(env, ctx, out) {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	return p.exit(env, ctx, codeDone, 0)
}

// srcDHKeyPair is the source's DH half for ctlSrcChannel: the one the dump
// stored at offDHSeed once a dump has run, a fresh one otherwise.
func (p *program) srcDHKeyPair(env *sgx.Env) (*tcb.DHKeyPair, error) {
	if ld64(env, offState) == stMigrating && ld64(env, offDumpDone) == 1 {
		return p.dh.take(ldSeed(env, offDHSeed))
	}
	var seed [tcb.SeedSize]byte
	if err := env.ReadRandom(seed[:]); err != nil {
		return nil, err
	}
	return tcb.NewDHKeyPairFromSeed(seed)
}

// ChannelSigMessage is the canonical byte string the source enclave signs
// when authenticating the migration channel; the agent enclave's trusted
// code verifies the same format.
func ChannelSigMessage(src tcb.DHPublic, tgt tcb.DHPublic, nonce [32]byte) []byte {
	return channelSigMessage(src, tgt, nonce)
}

func channelSigMessage(src tcb.DHPublic, tgt tcb.DHPublic, nonce [32]byte) []byte {
	msg := make([]byte, 0, 24+32+32+32)
	msg = append(msg, []byte("sgxmig-channel-sig/v1")...)
	msg = append(msg, src[:]...)
	msg = append(msg, tgt[:]...)
	msg = append(msg, nonce[:]...)
	return msg
}

// ctlSrcRelease performs self-destroy and only then releases Kmigrate,
// sealed under the session key. The ordering inside this single atomic step
// is the crux of P-4/P-5: once any software outside this enclave can learn
// Kmigrate, this enclave is already refusing to ever run a worker again.
func (p *program) ctlSrcRelease(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) != stMigrating {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	if ld64(env, offChanState) != chBuilt || ld64(env, offSessionOK) != 1 {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	if ld64(env, offDumpDone) != 1 || ld64(env, offKmigrateOK) != 1 {
		// "the Kmigrate will only be sent after all other data
		// transferring has been done"
		return p.exit(env, ctx, codeErr, errBadState)
	}
	// Self-destroy FIRST. The global flag stays set, so spinning workers
	// never resume; new entries observe stDestroyed.
	st64(env, offState, stDestroyed)
	st64(env, offChanState, chReleased)

	session := ldKey(env, offSession)
	kmig := ldKey(env, offKmigrate)
	var nonce [32]byte
	if err := env.Load(offNonce, nonce[:]); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	sealed, err := tcb.Seal(session, kmig[:], append([]byte("kmigrate-release"), nonce[:]...))
	if err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	// Wipe local copies.
	stKey(env, offKmigrate, tcb.Key{})
	st64(env, offKmigrateOK, 0)
	if !writeOut(env, ctx, sealed) {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	return p.exit(env, ctx, codeDone, 0)
}

// --- target-side restore ---

// ctlTgtBegin starts the target side on a virgin enclave: generate the DH
// half and a nonce, and emit a QE-targeted report binding them, which the
// untrusted runtime turns into a quote for the source to attest.
// Output: report(192) || dhpub(32) || nonce(32).
func (p *program) ctlTgtBegin(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) != stNormal || ld64(env, offRestored) != 0 || ld64(env, offPrivOK) != 0 {
		// Only a fresh, never-provisioned, never-restored instance may
		// become a migration target (P-5).
		return p.exit(env, ctx, codeErr, errBadState)
	}
	st64(env, offState, stRestoring)
	return p.beginExchange(env, ctx)
}

// beginExchange generates DH seed + nonce and emits report || dhpub ||
// nonce. With R2 == 1 the report targets the developer's agent enclave for
// local attestation instead of the quoting enclave.
func (p *program) beginExchange(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	var seed [tcb.SeedSize]byte
	if err := env.ReadRandom(seed[:]); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	var nonce [32]byte
	if err := env.ReadRandom(nonce[:]); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	kp, err := p.dh.build(seed)
	if err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	stSeed(env, offDHSeed, seed)
	if err := env.Store(offNonce, nonce[:]); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	pub := kp.Public()
	target := sgx.QETarget
	if ctx.R[2] == 1 {
		if p.app.AgentMeasurement == [32]byte{} {
			return p.exit(env, ctx, codeErr, errBadState)
		}
		target = p.app.AgentMeasurement
	}
	report := env.EReport(target, sgx.HashToReportData(tcb.HashConcat(pub[:], nonce[:])))
	out := MarshalReport(report)
	out = append(out, pub[:]...)
	out = append(out, nonce[:]...)
	if !writeOut(env, ctx, out) {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	return p.exit(env, ctx, codeDone, 0)
}

// ctlTgtChannel completes the channel on the target: verify the source's
// signature with the public key embedded in the image ("the target
// authenticates the source"), then derive the session key.
// Input: srcDH(32) || sig(64).
func (p *program) ctlTgtChannel(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) != stRestoring {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	in, ok := readIn(env, ctx, 256)
	if !ok || len(in) < 32+64 {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	var srcPub tcb.DHPublic
	var sig tcb.Signature
	copy(srcPub[:], in[:32])
	copy(sig[:], in[32:96])
	kp, err := p.dh.take(ldSeed(env, offDHSeed))
	if err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	var nonce [32]byte
	if err := env.Load(offNonce, nonce[:]); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	msg := channelSigMessage(srcPub, kp.Public(), nonce)
	if err := tcb.Verify(p.app.EnclavePublic, msg, sig); err != nil {
		return p.exit(env, ctx, codeErr, errBadSignature)
	}
	session, err := kp.Shared(srcPub, "migration-channel")
	if err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	stKey(env, offSession, session)
	st64(env, offSessionOK, 1)
	return p.exit(env, ctx, codeDone, 0)
}

// ctlTgtKey receives the sealed Kmigrate over the secure channel.
func (p *program) ctlTgtKey(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) != stRestoring || ld64(env, offSessionOK) != 1 {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	in, ok := readIn(env, ctx, 256)
	if !ok {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	session := ldKey(env, offSession)
	var nonce [32]byte
	if err := env.Load(offNonce, nonce[:]); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	kb, err := tcb.Open(session, in, append([]byte("kmigrate-release"), nonce[:]...))
	if err != nil || len(kb) != tcb.KeySize {
		return p.exit(env, ctx, codeErr, errDecryptFailed)
	}
	stKey(env, offKmigrate, tcb.Key(kb))
	st64(env, offKmigrateOK, 1)
	return p.exit(env, ctx, codeDone, 0)
}

// ctlTgtKeyLocal receives Kmigrate from the developer's agent enclave on
// this machine via local attestation (the Sec. VI-D optimisation): the agent
// proves its identity with a report targeted at us, binding its DH half to
// our nonce; the key is sealed under the DH shared secret.
// Input: report(192) || agentDH(32) || sealed...
func (p *program) ctlTgtKeyLocal(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) != stRestoring {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	if p.app.AgentMeasurement == [32]byte{} {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	in, ok := readIn(env, ctx, 1024)
	if !ok || len(in) < ReportWireSize+32 {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	report, err := UnmarshalReport(in[:ReportWireSize])
	if err != nil {
		return p.exit(env, ctx, codeErr, errAttestFailed)
	}
	var agentDH tcb.DHPublic
	copy(agentDH[:], in[ReportWireSize:ReportWireSize+32])
	sealed := in[ReportWireSize+32:]

	if !env.VerifyReport(report) || report.Measurement != p.app.AgentMeasurement {
		return p.exit(env, ctx, codeErr, errAttestFailed)
	}
	var nonce [32]byte
	if err := env.Load(offNonce, nonce[:]); err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	if report.Data != sgx.HashToReportData(tcb.HashConcat(agentDH[:], nonce[:])) {
		return p.exit(env, ctx, codeErr, errAttestFailed)
	}
	kp, err := p.dh.take(ldSeed(env, offDHSeed))
	if err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	shared, err := kp.Shared(agentDH, "agent-local-key")
	if err != nil {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	kb, err := tcb.Open(shared, sealed, append([]byte("agent-kmigrate"), nonce[:]...))
	if err != nil || len(kb) != tcb.KeySize {
		return p.exit(env, ctx, codeErr, errDecryptFailed)
	}
	stKey(env, offKmigrate, tcb.Key(kb))
	st64(env, offKmigrateOK, 1)
	return p.exit(env, ctx, codeDone, 0)
}

// ctlTgtRestore decrypts and verifies the checkpoint and writes every page
// back (paper Sec. III, restore Step-3). The untrusted runtime must have
// rebuilt CSSA values *before* this call: the rebuild's garbage SSA frames
// are overwritten here by the real migrated contexts.
// R1 = input offset, R2 = input length, R3 = 1 for owner-keyed restore.
func (p *program) ctlTgtRestore(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) != stRestoring {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	ownerKeyed := ctx.R[3] == 1
	var key tcb.Key
	if ownerKeyed {
		if ld64(env, offKencryptOK) != 1 {
			return p.exit(env, ctx, codeErr, errNotProvisioned)
		}
		key = ldKey(env, offKencrypt)
	} else {
		if ld64(env, offKmigrateOK) != 1 {
			return p.exit(env, ctx, codeErr, errNotProvisioned)
		}
		key = ldKey(env, offKmigrate)
	}

	// The staged checkpoint is read once, leaf by leaf, into
	// enclave-private memory and authenticated and decrypted there
	// (restoreCheckpoint), never over shared memory, which the host could
	// rewrite between the check and the use. No page is written back until
	// every record has checked out. Page 0 (the control page we are
	// executing against) is applied too — it carries the thread table, migK
	// targets, the provisioned identity key and application SDK state — and
	// then the lifecycle fields are re-pinned to the restoring state.
	base, n := ctx.R[1], ctx.R[2]
	if n == 0 || n > uint64(MaxCheckpointSize(p.layout)) {
		return p.exit(env, ctx, codeErr, errMemory)
	}
	err := restoreCheckpoint(p.layout, ckptLeafRecords, env.Measurement(), ownerKeyed, key, int(n),
		func(off int, dst []byte) error { return env.OutsideLoad(base+uint64(off), dst) },
		func(lin sgx.PageNum, page []byte) error { return env.Store(sgx.Address(lin, 0), page) })
	switch {
	case errors.Is(err, errCkptBad):
		return p.exit(env, ctx, codeErr, errBadCheckpoint)
	case errors.Is(err, errCkptAuth):
		return p.exit(env, ctx, codeErr, errDecryptFailed)
	case err != nil:
		return p.exit(env, ctx, codeErr, errMemory)
	}

	// Fix up lifecycle state on the restored control page. A worker parked
	// at the dump reads as spinning in the restored thread table. The
	// target's handler entry saves the flag it finds and its exit restores
	// it to the context it resumes, so the flag goes back to what the
	// source's spinning entry found (thrSpinPrev): busy under a call that
	// was running, free under one interrupted before its entry stub ran.
	// Left at spin, the resumed call would run reading as parked, and the
	// next migration's quiescence poll would pass while it still writes
	// memory.
	for tid := 1; tid < p.layout.Threads; tid++ {
		if slot := threadSlot(tid); ld64(env, slot+thrMigK) != 0 {
			st64(env, slot+thrLocalFlag, ld64(env, slot+thrSpinPrev))
		}
	}
	st64(env, offState, stRestoring)
	st64(env, offGlobalFlag, 1)
	st64(env, offChanState, chIdle)
	st64(env, offDumpDone, 0)
	st64(env, offRestored, 1)
	st64(env, offKmigrateOK, 0)
	stKey(env, offKmigrate, tcb.Key{})
	return p.exit(env, ctx, codeDone, 0)
}

// ctlTgtVerify is restore Step-4: check, entirely in-enclave, that the
// untrusted runtime rebuilt every worker's CSSA to the value recorded in the
// checkpoint. The fresh CSSAEENTER recordings were made by the measured
// entry stub when the runtime re-entered each spin handler, so the host
// cannot forge them. On success the enclave goes live: the global flag
// drops and spinning handlers release their interrupted contexts.
func (p *program) ctlTgtVerify(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offState) != stRestoring || ld64(env, offRestored) != 1 {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	for tid := 1; tid < p.layout.Threads; tid++ {
		slot := threadSlot(tid)
		k := ld64(env, slot+thrMigK)
		flag := ld64(env, slot+thrLocalFlag)
		if k == 0 {
			if flag != flagFree {
				return p.exit(env, ctx, codeErr, errVerifyCSSA)
			}
			continue
		}
		if flag != flagSpin {
			return p.exit(env, ctx, codeErr, errVerifyCSSA)
		}
		if ld64(env, slot+thrCSSAEnter) != k {
			return p.exit(env, ctx, codeErr, errVerifyCSSA)
		}
		if ld64(env, slot+thrEpoch) == ld64(env, slot+thrMigEpoch) {
			// No fresh handler entry happened on this machine: the host is
			// replaying the restored recordings instead of actually
			// rebuilding CSSA and re-entering the workers.
			return p.exit(env, ctx, codeErr, errVerifyCSSA)
		}
	}
	st64(env, offState, stNormal)
	st64(env, offGlobalFlag, 0)
	return p.exit(env, ctx, codeDone, 0)
}

// --- provisioning (boot-time attested key delivery, Sec. II-A/V-B) ---

// ctlProvisionInit generates a fresh DH half bound into a QE report so the
// enclave owner can attest this instance and deliver secrets.
func (p *program) ctlProvisionInit(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	state := ld64(env, offState)
	if state != stNormal && state != stRestoring {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	return p.beginExchange(env, ctx)
}

// ctlProvisionDone installs the enclave's identity private key delivered by
// the owner: Input: ownerDH(32) || sealed(seed).
func (p *program) ctlProvisionDone(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	if ld64(env, offPrivOK) != 0 {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	seed, ok := p.openOwnerBlob(env, ctx, "provision", "enclave-priv")
	if !ok {
		return p.exit(env, ctx, codeErr, errDecryptFailed)
	}
	// Bind: the delivered private key must match the embedded public key.
	id := tcb.NewSigningIdentityFromSeed(seed)
	if id.Public() != p.app.EnclavePublic {
		return p.exit(env, ctx, codeErr, errBadSignature)
	}
	stSeed(env, offPrivSeed, seed)
	st64(env, offPrivOK, 1)
	return p.exit(env, ctx, codeDone, 0)
}

// ctlOwnerKey installs the owner's checkpoint key Kencrypt (Sec. V-C).
func (p *program) ctlOwnerKey(env *sgx.Env, ctx *sgx.Context) sgx.Status {
	state := ld64(env, offState)
	if state != stNormal && state != stRestoring {
		return p.exit(env, ctx, codeErr, errBadState)
	}
	seed, ok := p.openOwnerBlob(env, ctx, "provision", "kencrypt")
	if !ok {
		return p.exit(env, ctx, codeErr, errDecryptFailed)
	}
	stKey(env, offKencrypt, tcb.Key(seed))
	st64(env, offKencryptOK, 1)
	return p.exit(env, ctx, codeDone, 0)
}

// openOwnerBlob decrypts an owner-delivered 32-byte secret sealed to the DH
// exchange started by ctlProvisionInit.
func (p *program) openOwnerBlob(env *sgx.Env, ctx *sgx.Context, label, aad string) ([32]byte, bool) {
	var zero [32]byte
	in, ok := readIn(env, ctx, 256)
	if !ok || len(in) < 32 {
		return zero, false
	}
	var ownerPub tcb.DHPublic
	copy(ownerPub[:], in[:32])
	sealed := in[32:]
	kp, err := p.dh.take(ldSeed(env, offDHSeed))
	if err != nil {
		return zero, false
	}
	shared, err := kp.Shared(ownerPub, label)
	if err != nil {
		return zero, false
	}
	var nonce [32]byte
	if err := env.Load(offNonce, nonce[:]); err != nil {
		return zero, false
	}
	pt, err := tcb.Open(shared, sealed, append([]byte(aad), nonce[:]...))
	if err != nil || len(pt) != 32 {
		return zero, false
	}
	var out [32]byte
	copy(out[:], pt)
	return out, true
}

// Package enclave is the SDK of the reproduced system (paper Sec. VI-C):
// it builds enclave images, injects the migration machinery — control
// thread, entry/exit stubs, global/local flags, in-enclave CSSA tracking,
// two-phase checkpointing — and provides the untrusted runtime ("SGX
// library") that hosts enclaves, dispatches ecalls/ocalls and cooperates
// with migration without being trusted by it.
package enclave

import (
	"fmt"

	"repro/internal/sgx"
)

// Layout is the deterministic memory map of an enclave built by this SDK.
// Page 0 is the SDK control page (the paper: "Our SDK puts the global flag
// at the beginning of enclave, so the address of the global flag can help
// the control thread to determine the address range of the enclave").
// It is followed, per thread, by a TCS page, NSSA SSA frames and a TLS page;
// then the application's data region and heap.
//
// Thread 0 is always the SDK-injected control thread; worker threads are
// 1..Workers.
type Layout struct {
	Threads   int // workers + 1 (control thread)
	NSSA      int
	DataPages int
	HeapPages int
}

// Per-thread page group size: TCS + NSSA SSA frames + TLS.
func (l Layout) threadStride() int { return 1 + l.NSSA + 1 }

// TCSPage returns the linear page of thread tid's TCS.
func (l Layout) TCSPage(tid int) sgx.PageNum {
	return sgx.PageNum(1 + tid*l.threadStride())
}

// SSABase returns the linear page of thread tid's first SSA frame.
func (l Layout) SSABase(tid int) sgx.PageNum { return l.TCSPage(tid) + 1 }

// TLSPage returns thread tid's thread-local scratch page (ocall
// continuations live here).
func (l Layout) TLSPage(tid int) sgx.PageNum {
	return l.TCSPage(tid) + 1 + sgx.PageNum(l.NSSA)
}

// DataBase returns the first page of the application data region.
func (l Layout) DataBase() sgx.PageNum {
	return sgx.PageNum(1 + l.Threads*l.threadStride())
}

// HeapBase returns the first page of the heap.
func (l Layout) HeapBase() sgx.PageNum { return l.DataBase() + sgx.PageNum(l.DataPages) }

// TotalPages returns the enclave's ELRANGE size in pages.
func (l Layout) TotalPages() int {
	return int(l.HeapBase()) + l.HeapPages
}

// IsTCS reports whether lin is a TCS page (unreadable by software; skipped
// during checkpoint dumps and recreated by enclave construction).
func (l Layout) IsTCS(lin sgx.PageNum) bool {
	base := int(lin) - 1
	if base < 0 || base >= l.Threads*l.threadStride() {
		return false
	}
	return base%l.threadStride() == 0
}

func (l Layout) validate() error {
	switch {
	case l.Threads < 2:
		return fmt.Errorf("enclave: layout needs at least control thread + 1 worker, got %d threads", l.Threads)
	case l.Threads > maxThreads:
		return fmt.Errorf("enclave: at most %d threads supported, got %d", maxThreads, l.Threads)
	case l.NSSA < 2:
		return fmt.Errorf("enclave: NSSA must be >= 2 for exception-handler entry, got %d", l.NSSA)
	case l.DataPages < 0 || l.HeapPages < 0:
		return fmt.Errorf("enclave: negative region size")
	}
	return nil
}

// Control-page field offsets (bytes within page 0). The layout is part of
// the SDK ABI and measured via the initial page content.
const (
	offMagic      = 0  // constant controlMagic
	offGlobalFlag = 8  // 0 = unset, 1 = set (two-phase checkpointing phase 1)
	offState      = 16 // lifecycle state, see st* constants
	offNumThread  = 24
	offDataPages  = 32
	offHeapPages  = 40
	offNSSA       = 48
	offChanState  = 56 // migration channel state, see ch* constants
	offAuditCount = 64 // owner checkpoint/resume audit counter
	offDumpDone   = 72 // set once a migration checkpoint has been emitted
	offRestored   = 80 // set once this enclave was restored from a checkpoint

	// Per-thread table: stride 64 bytes starting at offThreadTable.
	offThreadTable = 256
	thrStride      = 64
	thrLocalFlag   = 0  // flagFree / flagBusy / flagSpin
	thrCSSAEnter   = 8  // last EENTER-reported CSSA (paper Sec. IV-C)
	thrMigK        = 16 // CSSA rebuild target recorded in the checkpoint
	thrEpoch       = 24 // increments on every enclave entry
	thrMigEpoch    = 32 // epoch snapshot at dump time (fresh-recording proof)
	thrSpinPrev    = 40 // the flag the entry that went to spin found (what its exit restores)

	// Key material (inside enclave memory; leaves only inside encrypted
	// checkpoints).
	offPrivSeed   = 3072 // enclave identity signing seed (owner-provisioned)
	offPrivOK     = 3104 // 1 once provisioned
	offKmigrate   = 3112 // random per-migration checkpoint key
	offKmigrateOK = 3144
	offSession    = 3152 // secure-channel session key
	offSessionOK  = 3184
	offDHSeed     = 3192 // in-flight DH private scalar
	offNonce      = 3224 // channel anti-replay nonce
	offKencrypt   = 3256 // owner-provided checkpoint key (Sec. V-C)
	offKencryptOK = 3288
	offCipherSel  = 3296 // tcb.CheckpointCipher for dumps
)

const controlMagic = 0x5347584d49475631 // "SGXMIGV1"

const maxThreads = 32

// SDK lifecycle states (offState).
const (
	stNormal    = 0
	stMigrating = 1 // phase 1/2 of two-phase checkpointing in progress
	stDestroyed = 2 // self-destroy: never runs again (paper Sec. V-B)
	stRestoring = 3 // target-side restore in progress
)

// Channel states (offChanState) enforcing the single-channel rule.
const (
	chIdle     = 0
	chBuilt    = 1 // source built its one secure channel
	chReleased = 2 // Kmigrate handed over; must imply stDestroyed
)

// Local flag values (paper Fig. 4).
const (
	flagFree = 0
	flagBusy = 1
	flagSpin = 2
)

// ECall selector space.
const (
	// SelHandler is the exception-handler entry used after AEX when a
	// migration is pending (workers spin there).
	SelHandler uint64 = 1000
	// SelOCallReturn resumes an ecall parked on an ocall.
	SelOCallReturn uint64 = 1001
	// SelNop enters and immediately exits; the restore path uses it with an
	// injected interrupt to rebuild CSSA (the EENTER never reaches a step).
	SelNop uint64 = 1002

	ctlBase             uint64 = 2000
	SelCtlProvisionInit uint64 = 2000
	SelCtlProvisionDone uint64 = 2001
	SelCtlMigrateBegin  uint64 = 2002
	SelCtlMigratePoll   uint64 = 2003
	SelCtlMigrateDump   uint64 = 2004
	SelCtlSrcChannel    uint64 = 2005
	SelCtlSrcRelease    uint64 = 2006
	SelCtlSrcCancel     uint64 = 2007
	SelCtlTgtBegin      uint64 = 2008
	SelCtlTgtChannel    uint64 = 2009
	SelCtlTgtRestore    uint64 = 2010
	SelCtlTgtVerify     uint64 = 2011
	SelCtlStatus        uint64 = 2012
	SelCtlDumpNaive     uint64 = 2013 // ablation: skip the quiescent wait
	SelCtlOwnerDump     uint64 = 2014 // Sec. V-C checkpoint with Kencrypt
	SelCtlOwnerKey      uint64 = 2015 // install owner Kencrypt
	SelCtlSetCipher     uint64 = 2016 // select checkpoint cipher (bench)
	SelCtlTgtKey        uint64 = 2017 // receive Kmigrate over the secure channel
	SelCtlTgtKeyLocal   uint64 = 2018 // receive Kmigrate from an agent enclave (local attestation)
)

// EEXIT codes delivered in register R7.
const (
	codeDone     = 1 // ecall finished; results in R0..R5
	codeOCall    = 2 // R0 = ocall id, R1 = shared-region offset, R2 = len
	codeResumeMe = 3 // handler finished spinning; ERESUME the real context
	codeDead     = 4 // enclave self-destroyed
	codeErr      = 5 // in-enclave failure; R0 = errno-style detail
)

// In-enclave error details (R0 when R7 == codeErr).
const (
	errBadSelector = iota + 1
	errBadThread
	errNotProvisioned
	errBadState
	errChannelUsed
	errAttestFailed
	errBadSignature
	errDecryptFailed
	errBadCheckpoint
	errVerifyCSSA
	errMemory
	errNotQuiescent
)

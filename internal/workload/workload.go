// Package workload reimplements the benchmarks the paper evaluates with:
// the nine nbench 2.2.3 kernels (Fig. 9(a)), the real-world application
// analogues — des, rc4, mcrypt, gnupg, libjpeg, libzip — (Fig. 9(b)), and a
// memcached-like in-enclave KV store (Fig. 11). Every workload exists in two
// forms: a native Go implementation operating on plain memory, and an
// enclave application whose working set lives in EPC-backed enclave memory,
// so the SDK/SGX overhead is a real measurement, not a model.
package workload

import (
	"encoding/binary"

	"repro/internal/enclave"
	"repro/internal/sgx"
)

// AccessMode selects how the in-enclave kernels touch enclave memory.
type AccessMode uint64

// Access modes.
const (
	// AccessBulk copies whole chunks across the enclave boundary check —
	// how this repo's SDK works (one EPCM check per chunk).
	AccessBulk AccessMode = 0
	// AccessWord performs an EPCM-checked access per 8-byte word,
	// modelling an SDK with word-granular boundary hardening (stands in
	// for the "Intel SDK" series of Fig. 9(a); see DESIGN.md).
	AccessWord AccessMode = 1
)

// RunSelector is every kernel app's single ecall:
// R1 = passes, R2 = AccessMode; returns a checksum in R0.
const RunSelector = 0

// Kernel describes one benchmark kernel. Transform must be a pure function
// of its buffer (plus pass/chunk indices): the enclave harness calls it on
// data staged from enclave memory, the native harness on plain memory, so
// both execute identical computation.
type Kernel struct {
	// Name identifies the kernel ("numeric-sort", ...).
	Name string
	// HeapBytes is the working-set size.
	HeapBytes int
	// ChunkBytes is the staging granularity (0 = whole heap in one chunk).
	ChunkBytes int
	// Init fills a chunk with deterministic pseudo-random input.
	Init func(chunk int, buf []byte)
	// Transform processes one chunk for one pass.
	Transform func(pass, chunk int, buf []byte)
}

func (k *Kernel) chunkBytes() int {
	if k.ChunkBytes <= 0 || k.ChunkBytes > k.HeapBytes {
		return k.HeapBytes
	}
	return k.ChunkBytes
}

func (k *Kernel) chunks() int {
	c := k.chunkBytes()
	return (k.HeapBytes + c - 1) / c
}

func (k *Kernel) heapPages() int {
	return (k.HeapBytes + sgx.PageSize - 1) / sgx.PageSize
}

// Native runs the kernel on plain memory: the Fig. 9(a) "native" series.
func (k *Kernel) Native(passes int) uint64 {
	buf := make([]byte, k.HeapBytes)
	cb := k.chunkBytes()
	for c := 0; c < k.chunks(); c++ {
		k.Init(c, chunkOf(buf, c, cb))
	}
	for p := 0; p < passes; p++ {
		for c := 0; c < k.chunks(); c++ {
			k.Transform(p, c, chunkOf(buf, c, cb))
		}
	}
	return fnv64(buf)
}

func chunkOf(buf []byte, c, cb int) []byte {
	lo := c * cb
	hi := lo + cb
	if hi > len(buf) {
		hi = len(buf)
	}
	return buf[lo:hi]
}

// App builds the enclave application for the kernel. The single ecall is a
// step machine: one chunk staged, transformed and written back per step, so
// the kernel is interruptible and migratable at chunk granularity.
func (k *Kernel) App(workers int) *enclave.App {
	return &enclave.App{
		Name:        "nbench-" + k.Name,
		CodeVersion: "v1",
		Workers:     workers,
		HeapPages:   k.heapPages(),
		ECalls:      []enclave.ECallFn{k.runECall},
	}
}

// AppNoStubs builds the migration-stub-free variant for the Fig. 9(b)
// overhead ablation.
func (k *Kernel) AppNoStubs(workers int) *enclave.App {
	app := k.App(workers)
	app.Name += "-nostubs"
	app.DisableMigrationStubs = true
	return app
}

// Step phases for runECall: PC encodes (phase, pass, chunk).
const (
	phaseInit = 0
	phaseWork = 1
	phaseSum  = 2
)

// The SDK persists application PCs as 32-bit values (they live in SSA
// frames), so the kernel state machine packs phase/pass/chunk into 32 bits:
// 4+14+14. That caps kernels at 16383 passes over 16383 chunks.
func packPC(phase, pass, chunk uint64) uint64 { return phase<<28 | pass<<14 | chunk }
func unpackPC(pc uint64) (phase, pass, chunk uint64) {
	return pc >> 28, (pc >> 14) & ((1 << 14) - 1), pc & ((1 << 14) - 1)
}

// runECall is the kernel's trusted entry: R1 = passes, R2 = AccessMode.
func (k *Kernel) runECall(c *enclave.Call) enclave.AppStatus {
	phase, pass, chunk := unpackPC(c.PC)
	passes := c.Regs[1]
	mode := AccessMode(c.Regs[2])
	cb := uint64(k.chunkBytes())
	nchunks := uint64(k.chunks())

	chunkLen := cb
	if (chunk+1)*cb > uint64(k.HeapBytes) {
		chunkLen = uint64(k.HeapBytes) - chunk*cb
	}
	addr := c.HeapBase() + chunk*cb
	buf := make([]byte, chunkLen)

	switch phase {
	case phaseInit:
		k.Init(int(chunk), buf)
		if err := storeChunk(c, addr, buf, mode); err != nil {
			return enclave.AppAbort
		}
		if chunk+1 < nchunks {
			c.PC = packPC(phaseInit, 0, chunk+1)
		} else if passes == 0 {
			c.PC = packPC(phaseSum, 0, 0)
			c.Regs[5] = fnvOffset
		} else {
			c.PC = packPC(phaseWork, 0, 0)
		}
		return enclave.AppRunning
	case phaseWork:
		if err := loadChunk(c, addr, buf, mode); err != nil {
			return enclave.AppAbort
		}
		k.Transform(int(pass), int(chunk), buf)
		if err := storeChunk(c, addr, buf, mode); err != nil {
			return enclave.AppAbort
		}
		switch {
		case chunk+1 < nchunks:
			c.PC = packPC(phaseWork, pass, chunk+1)
		case pass+1 < passes:
			c.PC = packPC(phaseWork, pass+1, 0)
		default:
			c.PC = packPC(phaseSum, 0, 0)
			c.Regs[5] = fnvOffset // running checksum in R5
		}
		return enclave.AppRunning
	default: // phaseSum
		if err := loadChunk(c, addr, buf, mode); err != nil {
			return enclave.AppAbort
		}
		c.Regs[5] = fnv64Continue(c.Regs[5], buf)
		if chunk+1 < nchunks {
			c.PC = packPC(phaseSum, 0, chunk+1)
			return enclave.AppRunning
		}
		c.Regs[0] = c.Regs[5]
		return enclave.AppDone
	}
}

func loadChunk(c *enclave.Call, addr uint64, buf []byte, mode AccessMode) error {
	if mode == AccessBulk {
		return c.Load(addr, buf)
	}
	var w [8]byte
	for off := 0; off < len(buf); off += 8 {
		n := len(buf) - off
		if n > 8 {
			n = 8
		}
		if err := c.Load(addr+uint64(off), w[:n]); err != nil {
			return err
		}
		copy(buf[off:off+n], w[:n])
	}
	return nil
}

func storeChunk(c *enclave.Call, addr uint64, buf []byte, mode AccessMode) error {
	if mode == AccessBulk {
		return c.Store(addr, buf)
	}
	for off := 0; off < len(buf); off += 8 {
		n := len(buf) - off
		if n > 8 {
			n = 8
		}
		if err := c.Store(addr+uint64(off), buf[off:off+n]); err != nil {
			return err
		}
	}
	return nil
}

// --- deterministic pseudo-randomness and checksums (shared by kernels) ---

const fnvOffset = 1469598103934665603

// fnv64 hashes a buffer with FNV-1a.
func fnv64(b []byte) uint64 { return fnv64Continue(fnvOffset, b) }

func fnv64Continue(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// lcg is a 64-bit linear congruential generator for reproducible inputs.
type lcg uint64

func newLCG(seed uint64) *lcg { l := lcg(seed*2862933555777941757 + 3037000493); return &l }

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

func (l *lcg) fill(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], l.next())
	}
	for i := len(b) &^ 7; i < len(b); i++ {
		b[i] = byte(l.next())
	}
}

// u64s views a byte slice as little-endian uint64 values.
func u64at(b []byte, i int) uint64     { return binary.LittleEndian.Uint64(b[i*8:]) }
func setU64(b []byte, i int, v uint64) { binary.LittleEndian.PutUint64(b[i*8:], v) }

func u32at(b []byte, i int) uint32     { return binary.LittleEndian.Uint32(b[i*4:]) }
func setU32(b []byte, i int, v uint32) { binary.LittleEndian.PutUint32(b[i*4:], v) }

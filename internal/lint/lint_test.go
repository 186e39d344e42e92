package lint

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// runFixture lints one testdata module and returns "base.go:line: rule"
// strings for every surviving diagnostic, in position order.
func runFixture(t *testing.T, fixture string, cfg *Config) []string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, cfg)
	if err != nil {
		t.Fatalf("lint %s: %v", fixture, err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule))
	}
	return got
}

func TestCryptoNonceFixture(t *testing.T) {
	got := runFixture(t, "nonce", &Config{
		ApprovedNonceFns: []string{"RandomBytes", "counterNonce"},
	})
	want := []string{
		"seal.go:52: cryptononce", // fixed nonce in BadFixed
		"seal.go:58: cryptononce", // nil AAD in BadAAD
		"seal.go:75: cryptononce", // BadEnvelope: the envelope's zeroed nonce field
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestDeterminismFixture(t *testing.T) {
	got := runFixture(t, "det", &Config{
		TrustedPackages: []string{"fxdet/enclave"},
	})
	want := []string{
		"enclave.go:5: determinism",  // math/rand import
		"enclave.go:13: determinism", // time.Now call
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestLockDisciplineFixture pins the flow-sensitive rule's exact findings.
// The cases after line 55 are the flow-sensitivity contract: a syntactic
// reimplementation ("a Lock call appears somewhere in the body") misses
// every finding in AfterUnlock/TryFail/BadCondUnlock/GoroutineLit and
// cannot pass this test.
func TestLockDisciplineFixture(t *testing.T) {
	got := runFixture(t, "lock", &Config{})
	want := []string{
		"counter.go:39: lockdiscipline",  // Racy reads n without the lock
		"counter.go:51: ignore",          // BadIgnore's directive lacks a reason
		"counter.go:52: lockdiscipline",  // ...so the access still reports
		"counter.go:64: lockdiscipline",  // AfterUnlock's read after unlock
		"counter.go:71: lockdiscipline",  // TryFail reads on the failed branch
		"counter.go:128: lockdiscipline", // BadCondUnlock's half-released tail
		"counter.go:141: lockdiscipline", // GoroutineLit's cross-goroutine write
		"counter.go:180: lockdiscipline", // Table[V].Peek: generic receiver, looked up by origin
		"counter.go:194: lockdiscipline", // Number: an unlocked read-modify-write
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestPlainFlowFixture pins the taint rule's exact findings. deep.go is the
// summary-solver contract: a result that crosses twenty caller-first
// wrappers arrives only if summaries are solved callee-first. The iface.go
// cases are the dynamic-dispatch contract: an analysis that bails on
// indirect calls misses both findings (and a blanket "interface calls are
// tainted" rule flags the all-sanitizing SealedIfaceOK) — neither can pass.
// The frame.go cases are the bulk-path contract: plaintext leaving inside a
// *Frame argument, invisible to a config that lists only the message send.
func TestPlainFlowFixture(t *testing.T) {
	got := runFixture(t, "taint", &Config{
		TaintSources:    []string{"fxtaint/crypt.Decrypt"},
		TaintSinks:      []string{"fxtaint/crypt.SendOut", "log.Printf", "(fxtaint/crypt.Wire).SendFrame", "(*fxtaint/crypt.Env).OutsideStore"},
		TaintSanitizers: []string{"fxtaint/crypt.Encrypt"},
	})
	want := []string{
		"deep.go:10: plainflow",  // LeakDeep: twenty wrappers between Decrypt and the sink
		"flow.go:13: plainflow",  // LeakDirect: straight to the sink
		"flow.go:20: plainflow",  // LeakVia: through append and slicing
		"flow.go:26: plainflow",  // LeakLog: through log.Printf
		"flow.go:36: plainflow",  // LeakWrapped: through the relay wrapper
		"flow.go:47: plainflow",  // LeakReturned: summary-tainted result
		"flow.go:68: plainflow",  // LeakStore: plaintext to a pointer-receiver memory sink
		"frame.go:12: plainflow", // LeakFrame: plaintext as a frame's Data
		"frame.go:20: plainflow", // LeakFrameField: Data assigned after construction
		"iface.go:31: plainflow", // LeakIfaceSource: source behind dispatch
		"iface.go:48: plainflow", // LeakIfaceSink: sink behind dispatch
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestImmutableFixture pins the immutable rule's exact findings. The
// flow-sensitivity contract: NewPublished and NewAsync write inside a
// constructor — a purely syntactic "constructors may write" rule misses
// both — while New/NewFilled/NewDeferred write the same field in the same
// kind of function and must stay clean. The interprocedural contract
// (alias.go): NewRegistered/NewSelfPublished escape only through a
// same-package callee's publish summary, the aliased writes are reached
// only through alias binds and alias-return summaries, and NewNoted /
// NewViaHelperAlias must stay clean — neither a purely local analysis
// nor a "same-package calls always escape" approximation passes.
func TestImmutableFixture(t *testing.T) {
	got := runFixture(t, "immut", &Config{})
	want := []string{
		"alias.go:23: immutable", // NewAliasedLate: aliased write after send
		"alias.go:47: immutable", // NewHelperAliasLate: helper alias after go
		"alias.go:66: immutable", // NewRegistered: register's summary publishes b
		"alias.go:74: immutable", // NewRegisteredVia: publish two calls deep
		"alias.go:95: immutable", // NewSelfPublished: method publishes receiver
		"box.go:32: immutable",   // NewPublished: write after channel send
		"box.go:40: immutable",   // NewAsync: write from spawned goroutine
		"box.go:56: immutable",   // Reset: write outside any constructor
		"box.go:77: immutable",   // Relabel: another type's method writes a shelved box
		"ext.go:9: immutable",    // Rebrand: write outside declaring package
		"ext.go:17: immutable",   // Sidestep: aliased cross-package write
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestLockOrderFixture pins the order rule's exact findings. The cases after
// line 98 are the shared-lock-model contract: Backoff's failed TryLock holds
// nothing (a linear walk reports a false u/t cycle), Evict's second lock is
// only reachable through interface dispatch (a static-callee summary misses
// both 154 and 161), and Step's unlock-and-return arm must not hide or
// invent a hold.
func TestLockOrderFixture(t *testing.T) {
	got := runFixture(t, "lockord", &Config{})
	want := []string{
		"locks.go:11: lockorder",  // m's annotation names no sibling mutex
		"locks.go:18: lockorder",  // AB acquires b after a ...
		"locks.go:27: lockorder",  // ... while BA acquires a after b
		"locks.go:41: lockorder",  // Add re-enters mu through bump
		"locks.go:154: lockorder", // Evict holds cm across Flusher.Flush, which takes dm ...
		"locks.go:161: lockorder", // ... while Sync takes cm after dm
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestRepoIsClean is the self-test the CI gate relies on: the default rule
// set over this repository must report nothing.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestDefaultConfigTrusts(t *testing.T) {
	cfg := DefaultConfig("repro")
	for _, p := range []string{"repro/internal/enclave", "repro/internal/sgx", "repro/internal/tcb", "repro/internal/hwext"} {
		if !cfg.trusted(p) {
			t.Errorf("%s should be trusted", p)
		}
	}
	for _, p := range []string{"repro", "repro/internal/core", "repro/internal/vmm", "repro/internal/sgxfake"} {
		if cfg.trusted(p) {
			t.Errorf("%s should not be trusted", p)
		}
	}
}

// TestDefaultConfigWatchesBothSends: every way out of core.Transport is a
// plainflow sink. SendFrame was missing while all bulk data left through it.
func TestDefaultConfigWatchesBothSends(t *testing.T) {
	sinks := toSet(DefaultConfig("repro").TaintSinks)
	for _, m := range []string{"Send", "SendFrame"} {
		if id := "(repro/internal/core.Transport)." + m; !sinks[id] {
			t.Errorf("%s is not a taint sink", id)
		}
	}
}

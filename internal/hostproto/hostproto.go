// Package hostproto defines the wire protocol between the sgxhost daemon
// and its clients (sgxmigrate), plus the shared-secret identity derivation
// that lets independent processes agree on the enclave owner and the
// attestation-service keys.
package hostproto

import (
	"repro/internal/tcb"
	"repro/internal/telemetry"
)

// Op selects one daemon operation.
type Op string

// Ops.
const (
	OpLaunch     Op = "launch"      // Image → ID
	OpCall       Op = "call"        // ID, Worker, Selector, Args → Regs
	OpList       Op = "list"        // → IDs
	OpStats      Op = "stats"       // → Stats (capacity/load snapshot for fleet polling)
	OpMigrateOut Op = "migrate-out" // ID, Target → Report
	OpMigrateIn  Op = "migrate-in"  // (host-to-host) switches the conn to a migration transport
	OpEvents     Op = "events"      // Cursor → Events, NextCursor, Counters (journal tail + counter snapshot)
)

// Command is a client request.
type Command struct {
	Op       Op
	Image    string
	ID       string
	Target   string
	Worker   int
	Selector uint64
	Args     []uint64
	// TraceParent carries the caller's trace context in the W3C
	// traceparent layout (telemetry.Context.Inject); empty = untraced.
	// The daemon parents its operation span under it, and on OpMigrateIn
	// the source host forwards it so the target joins the same trace.
	TraceParent string
	// Cursor is the OpEvents since-sequence cursor: the daemon returns
	// only journal records with Seq > Cursor (0 = everything retained).
	Cursor uint64
}

// HostStats is the OpStats payload: one host's capacity and load
// snapshot, polled periodically by the fleet control plane to drive
// placement, drain, and rebalance decisions. Live/Dead are sorted so the
// snapshot is deterministic for a given session table state.
type HostStats struct {
	Name string
	// Live are the session IDs of running enclaves; Dead are sessions
	// whose enclave has self-destroyed but has not been reaped yet
	// (normally empty: migrated-away sessions are reaped on the spot).
	Live []string
	Dead []string
	// FreeEPC/TotalEPC are the machine's EPC frame accounting — the
	// capacity signal the placement policies weigh.
	FreeEPC  int
	TotalEPC int
	// InflightIn/InflightOut count migrations currently executing with
	// this host as target/source.
	InflightIn  int
	InflightOut int
}

// Response is the daemon's reply.
type Response struct {
	Err    string
	ID     string
	IDs    []string
	Regs   []uint64
	Report string
	// Stats is populated only for OpStats.
	Stats HostStats
	// Trace is the daemon's finished span buffer for the request's trace,
	// returned only when the request carried a TraceParent. The client
	// Adopts it so `sgxmigrate -trace` emits one merged timeline.
	Trace telemetry.WireTrace
	// Events/NextCursor answer OpEvents: the journal records after the
	// request's Cursor and the cursor to resume from next scrape.
	Events     []telemetry.Record
	NextCursor uint64
	// Counters is the OpEvents-time counter snapshot, from which the
	// fleet federator derives per-host time-windowed rate series.
	Counters map[string]int64
}

// TraceShipment carries the migration target's span buffer back to the
// source over the migration connection, after the core transport finishes
// (commit or abort). It is always sent — empty when the request was
// untraced — so the source can read one fixed trailer message.
type TraceShipment struct {
	Trace telemetry.WireTrace
}

// MachineKey carries a machine attestation public key during host-to-host
// handshakes.
type MachineKey struct {
	Key tcb.PublicKey
}

// Identities are the deterministic key seeds derived from the deployment
// secret.
type Identities struct {
	ServiceSeed [tcb.SeedSize]byte
	SignerSeed  [tcb.SeedSize]byte
	EnclaveSeed [tcb.SeedSize]byte
	Kencrypt    tcb.Key
}

// DeriveIdentities expands a shared secret into the party identities.
func DeriveIdentities(secret string) Identities {
	root := tcb.Key(tcb.Hash([]byte("sgxmig-deployment/" + secret)))
	return Identities{
		ServiceSeed: tcb.DeriveKey(root, "service"),
		SignerSeed:  tcb.DeriveKey(root, "signer"),
		EnclaveSeed: tcb.DeriveKey(root, "enclave-identity"),
		Kencrypt:    tcb.DeriveKey(root, "kencrypt"),
	}
}

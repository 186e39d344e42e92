// Top-level benchmarks: one per table/figure of the paper's evaluation
// (Sec. VIII) plus the ablations from DESIGN.md. Each testing.B benchmark
// wraps the corresponding runner in internal/bench; `go test -bench=.`
// regenerates every series, and cmd/sgxmig-bench prints the full
// paper-vs-measured tables.
package sgxmig

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/tcb"
)

// BenchmarkFig9a_Nbench regenerates Fig. 9(a): nbench kernels native vs two
// SDK profiles, with String Sort thrashing an undersized EPC.
func BenchmarkFig9a_Nbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig9a(1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-18s native=%-12v sdk=%.2fx intel-style=%.2fx evictions=%d",
					r.Kernel, r.NativeTime, r.SDKNorm, r.IntelNorm, r.Evictions)
			}
		}
	}
}

// BenchmarkFig9b_MigrationSupport regenerates Fig. 9(b): per-application
// overhead of the migration stubs (expected ≈ 1.0×).
func BenchmarkFig9b_MigrationSupport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig9b(2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-10s with=%v without=%v ratio=%.3f", r.App, r.WithStubs, r.WithoutStubs, r.Norm)
			}
		}
	}
}

// BenchmarkFig9c_TwoPhaseCheckpoint regenerates Fig. 9(c): two-phase
// checkpoint latency vs concurrent enclave count (RC4, the paper's config).
func BenchmarkFig9c_TwoPhaseCheckpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig9c([]int{1, 2, 4, 8}, tcb.CipherRC4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("enclaves=%d mean two-phase checkpoint=%v", r.Enclaves, r.MeanPerEnc)
			}
		}
	}
}

// BenchmarkFig9c_Ciphers reproduces the Sec. VIII-B cipher comparison
// (RC4 ≈ 200µs vs DES ≈ 300µs on the authors' machine; shape: DES > RC4).
func BenchmarkFig9c_Ciphers(b *testing.B) {
	for _, cipher := range []tcb.CheckpointCipher{tcb.CipherRC4, tcb.CipherDES, tcb.CipherAESGCM} {
		b.Run(cipher.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig9c([]int{1}, cipher)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s: %v", cipher, rows[0].MeanPerEnc)
				}
			}
		})
	}
}

// BenchmarkFig9d_TotalDump regenerates Fig. 9(d): guest-OS fan-out latency
// until all enclaves are ready.
func BenchmarkFig9d_TotalDump(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig9d([]int{1, 2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("enclaves=%d total dump=%v", r.Enclaves, r.TotalDump)
			}
		}
	}
}

// BenchmarkFig10a_Restore regenerates Fig. 10(a): serial enclave rebuild
// time on the target (reported out of the live-migration stats).
func BenchmarkFig10a_Restore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig10([]int{1, 2, 4, 8, 16}, 2048, 1e9)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("enclaves=%d restore=%v", r.Enclaves, r.With.EnclaveRestoreTime)
			}
		}
	}
}

// BenchmarkFig10bcd_LiveMigration regenerates Fig. 10(b/c/d): whole-VM live
// migration with vs without enclaves — total time, downtime, transfer.
func BenchmarkFig10bcd_LiveMigration(b *testing.B) {
	counts := []int{8, 16}
	if testing.Short() {
		counts = []int{8}
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig10(counts, 4096, 250e6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("enclaves=%d total %v/%v downtime %v/%v transfer %dMB/%dMB (with/without)",
					r.Enclaves, r.With.TotalTime, r.Without.TotalTime,
					r.With.Downtime, r.Without.Downtime,
					r.With.TransferredBytes>>20, r.Without.TransferredBytes>>20)
			}
		}
	}
}

// BenchmarkFig11_CheckpointSize regenerates Fig. 11: memcached-analogue
// checkpoint time vs state size (AES-GCM).
func BenchmarkFig11_CheckpointSize(b *testing.B) {
	sizes := []int{1, 2, 4, 8}
	if !testing.Short() {
		sizes = []int{1, 2, 4, 8, 16, 32}
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig11(sizes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("state=%dMiB checkpoint=%v blob=%dMiB",
					r.StateBytes>>20, r.Checkpoint, r.BlobBytes>>20)
			}
		}
	}
}

// BenchmarkAblation_NaiveVsTwoPhase quantifies the Fig. 3 consistency
// ablation: naive checkpoints violate the invariant, two-phase never does.
func BenchmarkAblation_NaiveVsTwoPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := bench.AblationNaiveVsTwoPhase(4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("attempts=%d naive violations=%d two-phase violations=%d (naive dump %v, two-phase %v)",
				row.Attempts, row.NaiveViolations, row.TwoPhaseViolations, row.NaiveDumpTime, row.TwoPhaseTime)
		}
	}
}

// BenchmarkAblation_AgentEnclave regenerates the Sec. VI-D optimisation:
// attestation RTT is hidden from the migration window by the agent enclave.
func BenchmarkAblation_AgentEnclave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationAgent([]time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("rtt=%-6v critical window: without-agent=%v with-agent=%v", r.RTT, r.WithoutAgent, r.WithAgent)
			}
		}
	}
}

// BenchmarkExt_HardwareMigration compares the paper's software mechanism to
// its proposed hardware extension (Sec. VII-B).
func BenchmarkExt_HardwareMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationHardwareExtension([]int{16, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("heap=%4d pages: software=%v hardware=%v (%.1fx)",
					r.HeapPages, r.SoftwareTime, r.HardwareTime,
					float64(r.SoftwareTime)/float64(r.HardwareTime))
			}
		}
	}
}

// BenchmarkAblation_PipelinedEngine compares the pipelined live-migration
// engine (dump and per-enclave channel legs overlapped with pre-copy,
// streamed chunk sender) against the paper's serial Fig. 8 schedule.
func BenchmarkAblation_PipelinedEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := bench.AblationPipeline(8, 4096, 250e6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("serial:    total=%v downtime=%v dump=%v",
				row.Serial.TotalTime, row.Serial.Downtime, row.Serial.EnclaveDumpTime)
			b.Logf("pipelined: total=%v downtime=%v dump=%v hidden=%v",
				row.Pipelined.TotalTime, row.Pipelined.Downtime,
				row.Pipelined.EnclaveDumpTime, row.Pipelined.DumpPrecopyOverlap)
		}
	}
}

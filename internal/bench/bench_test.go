package bench

import (
	"testing"

	"repro/internal/tcb"
)

// TestFig9cSmoke drives the most concurrent harness path — multiple
// enclaves with busy workers checkpointing in parallel — at a small scale,
// so `go test -race ./...` exercises the shared counters and transport/
// agent state this package leans on. The full-size run is
// cmd/sgxmig-bench's.
func TestFig9cSmoke(t *testing.T) {
	rows, err := Fig9c([]int{2}, tcb.CipherAESGCM)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if rows[0].Enclaves != 2 || rows[0].Cipher != tcb.CipherAESGCM {
		t.Fatalf("unexpected row: %+v", rows[0])
	}
	if rows[0].MeanPerEnc <= 0 {
		t.Fatalf("non-positive mean checkpoint time: %v", rows[0].MeanPerEnc)
	}
}

// TestFig9dSmoke covers the guest-OS fan-out (PrepareAllEnclaves) with two
// enclaves inside one VM, the harness's other concurrency hot spot
// (hypervisor state, guest process table).
func TestFig9dSmoke(t *testing.T) {
	rows, err := Fig9d([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Enclaves != 2 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if rows[0].TotalDump <= 0 {
		t.Fatalf("non-positive dump time: %v", rows[0].TotalDump)
	}
}

// TestAblationPipelineSmoke runs the A4 comparison at a small scale and
// checks its structural claim: the pipelined schedule hides a positive
// slice of the enclave dump behind pre-copy and the paper's schedule hides
// none. Totals and downtimes are reported, not asserted: at this scale
// their ordering is within scheduler noise.
func TestAblationPipelineSmoke(t *testing.T) {
	row, err := AblationPipeline(4)
	if err != nil {
		t.Fatal(err)
	}
	if row.Serial.Overlap != 0 {
		t.Fatalf("serial schedule reported overlap %v", row.Serial.Overlap)
	}
	if row.Pipelined.Overlap <= 0 {
		t.Fatalf("pipelined schedule hid no dump time: %+v", row.Pipelined)
	}
	t.Logf("serial: total=%v downtime=%v; pipelined: total=%v downtime=%v (hidden %v)",
		row.Serial.Total, row.Serial.Downtime,
		row.Pipelined.Total, row.Pipelined.Downtime, row.Pipelined.Overlap)
}

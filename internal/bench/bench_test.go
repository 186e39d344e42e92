package bench

import (
	"testing"

	"repro/internal/tcb"
)

// TestFig9cSmoke drives the most concurrent harness path — multiple
// enclaves with busy workers checkpointing in parallel — at a small scale,
// so `go test -race ./...` exercises the shared counters and transport/
// agent state this package leans on. The full-size run stays in the
// top-level benchmarks.
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
// enclaves inside one VM, the other concurrency hot spot the ISSUE calls
// out (hypervisor state, guest process table).
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
// checks the structural claims: the pipelined schedule hides a positive
// slice of the enclave dump behind pre-copy, the serial schedule hides
// none, and the hidden dump time shows up as lower downtime. (Total time is
// reported but not asserted at this scale — with a millisecond-sized dump
// the overlap win is within scheduler noise of the extra pre-copy round the
// pipeline ships; the full-size A4 run in cmd/sgxmig-bench shows both.)
func TestAblationPipelineSmoke(t *testing.T) {
	var row PipelineRow
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		row, err = AblationPipeline(4, 2048, 500e6)
		if err != nil {
			t.Fatal(err)
		}
		if row.Pipelined.Downtime < row.Serial.Downtime {
			break
		}
	}
	if row.Serial.DumpPrecopyOverlap != 0 {
		t.Fatalf("serial schedule reported overlap %v", row.Serial.DumpPrecopyOverlap)
	}
	if row.Pipelined.DumpPrecopyOverlap <= 0 {
		t.Fatalf("pipelined schedule hid no dump time: %+v", row.Pipelined)
	}
	if row.Pipelined.Downtime >= row.Serial.Downtime {
		t.Fatalf("pipelined downtime not below serial: %v >= %v",
			row.Pipelined.Downtime, row.Serial.Downtime)
	}
	t.Logf("serial: total=%v downtime=%v; pipelined: total=%v downtime=%v (hidden %v)",
		row.Serial.TotalTime, row.Serial.Downtime,
		row.Pipelined.TotalTime, row.Pipelined.Downtime, row.Pipelined.DumpPrecopyOverlap)
}

func TestAblationDrainSmoke(t *testing.T) {
	rows, err := AblationDrain(6, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Moved != 6 {
			t.Fatalf("concurrency %d drained %d of 6 enclaves", r.Concurrency, r.Moved)
		}
		if r.Elapsed <= 0 || r.Passes < 1 {
			t.Fatalf("implausible drain row: %+v", r)
		}
	}
}

package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

// TestWriteSARIF pins the report shape consumers depend on: schema and
// version strings, the full rule catalogue on the driver (including rules
// with no findings), and per-result ruleId/ruleIndex/location agreement.
func TestWriteSARIF(t *testing.T) {
	cfg := DefaultConfig("repro")
	diags := []Diagnostic{
		{
			Pos:     token.Position{Filename: "internal/vmm/livemig.go", Line: 42, Column: 7},
			Rule:    "plainflow",
			Message: "decrypted plaintext reaches an untrusted sink",
		},
		{
			Pos:     token.Position{Filename: "internal/core/migrate.go", Line: 9},
			Rule:    "no-such-rule",
			Message: "finding from an unknown rule keeps the schema-default index",
		},
	}

	var buf bytes.Buffer
	if err := WriteSARIF(&buf, diags, cfg); err != nil {
		t.Fatal(err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region *struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || log.Schema == "" {
		t.Fatalf("version/schema = %q / %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want exactly one run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "sgxlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}

	checkers := Checkers(cfg)
	if len(run.Tool.Driver.Rules) != len(checkers) {
		t.Fatalf("rule catalogue has %d entries, want %d (every checker, found or not)",
			len(run.Tool.Driver.Rules), len(checkers))
	}
	flowIdx := -1
	for i, r := range run.Tool.Driver.Rules {
		if r.ID != checkers[i].Name() {
			t.Errorf("rules[%d].id = %q, want %q", i, r.ID, checkers[i].Name())
		}
		if r.ShortDescription.Text == "" {
			t.Errorf("rules[%d] (%s) has an empty shortDescription", i, r.ID)
		}
		if r.ID == "plainflow" {
			flowIdx = i
		}
	}
	if flowIdx < 0 {
		t.Fatal("plainflow missing from the rule catalogue")
	}

	if len(run.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(run.Results))
	}
	r0 := run.Results[0]
	if r0.RuleID != "plainflow" || r0.RuleIndex != flowIdx || r0.Level != "error" {
		t.Errorf("results[0] = ruleId %q index %d level %q, want plainflow/%d/error",
			r0.RuleID, r0.RuleIndex, r0.Level, flowIdx)
	}
	if len(r0.Locations) != 1 {
		t.Fatalf("results[0] has %d locations", len(r0.Locations))
	}
	pl := r0.Locations[0].PhysicalLocation
	if pl.ArtifactLocation.URI != "internal/vmm/livemig.go" || pl.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("results[0] artifact = %+v", pl.ArtifactLocation)
	}
	if pl.Region == nil || pl.Region.StartLine != 42 || pl.Region.StartColumn != 7 {
		t.Errorf("results[0] region = %+v, want 42:7", pl.Region)
	}

	r1 := run.Results[1]
	if r1.RuleIndex != -1 {
		t.Errorf("unknown rule must keep the schema-default index -1, got %d", r1.RuleIndex)
	}
	if reg := r1.Locations[0].PhysicalLocation.Region; reg == nil || reg.StartLine != 9 || reg.StartColumn != 0 {
		t.Errorf("results[1] region = %+v, want line 9 with the column omitted", reg)
	}
}

// TestWriteSARIFEmpty: a clean run still emits the run with the rule
// catalogue and an empty (never null) results array, which is what
// ingestion endpoints require.
func TestWriteSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil, DefaultConfig("repro")); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	runs := log["runs"].([]any)
	results, ok := runs[0].(map[string]any)["results"].([]any)
	if !ok {
		t.Fatalf("results must be an array even when empty, got %T", runs[0].(map[string]any)["results"])
	}
	if len(results) != 0 {
		t.Fatalf("clean run produced %d results", len(results))
	}
}

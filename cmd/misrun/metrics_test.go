package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeTelemetry parses the -metrics stderr dump (the obs registry's
// JSON form) into name → series for assertions.
func decodeTelemetry(t *testing.T, data []byte) map[string]float64 {
	t.Helper()
	var series []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Count uint64  `json:"count"`
	}
	if err := json.Unmarshal(data, &series); err != nil {
		t.Fatalf("-metrics stderr is not registry JSON: %v\n%s", err, data)
	}
	values := make(map[string]float64, len(series))
	for _, s := range series {
		v := s.Value
		if s.Count > 0 {
			v = float64(s.Count)
		}
		values[s.Name] = v
	}
	return values
}

// TestMetricsFlagOneGraph: -metrics dumps engine telemetry to stderr
// while the report on stdout stays byte-identical.
func TestMetricsFlagOneGraph(t *testing.T) {
	args := []string{"-graph", "gnp:n=80,p=0.5", "-algo", "feedback", "-seed", "3"}
	var plain bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := runTo(append(args, "-metrics"), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != plain.String() {
		t.Fatalf("-metrics changed stdout:\n%s\n---\n%s", plain.String(), stdout.String())
	}
	values := decodeTelemetry(t, stderr.Bytes())
	if values["beepmis_engine_rounds_total"] <= 0 {
		t.Fatalf("telemetry recorded no rounds: %v", values)
	}
	if values["beepmis_engine_runs_total"] != 1 {
		t.Fatalf("telemetry runs %v, want 1", values["beepmis_engine_runs_total"])
	}
}

// TestMetricsFlagScenario: the scenario contract is that stdout is the
// canonical result bytes, so telemetry must ride stderr and leave them
// untouched.
func TestMetricsFlagScenario(t *testing.T) {
	path := writeScenario(t, scenarioDoc)
	var plain bytes.Buffer
	if err := run([]string{"-scenario", path}, &plain); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := runTo([]string{"-scenario", path, "-metrics"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), plain.Bytes()) {
		t.Fatal("-metrics changed the scenario result bytes")
	}
	values := decodeTelemetry(t, stderr.Bytes())
	// The spec runs 4 trials; each is one engine run.
	if values["beepmis_engine_runs_total"] != 4 {
		t.Fatalf("telemetry runs %v, want the spec's 4 trials", values["beepmis_engine_runs_total"])
	}
	if values["beepmis_engine_rounds_total"] <= 0 {
		t.Fatalf("telemetry recorded no rounds: %v", values)
	}
}

// TestMetricsWithoutFlagSilent: no -metrics, no stderr noise.
func TestMetricsWithoutFlagSilent(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := runTo([]string{"-graph", "gnp:n=40,p=0.5", "-algo", "feedback"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Fatalf("stderr written without -metrics: %q", stderr.String())
	}
}

package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func sampleResult() *Result {
	return &Result{
		ID: "fig3", Title: "t", XLabel: "n", YLabel: "rounds",
		Series: []Series{
			{Name: "feedback", Points: []Point{{X: 100, Mean: 13.6, Std: 3.6, Trials: 100}}},
			{Name: "ref", Reference: true, Points: []Point{{X: 100, Mean: 44.1}}},
		},
		Notes: []string{"a note"},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleResult().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	all, err := ReadAllJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("read %d results, want 1", len(all))
	}
	back := all[0]
	orig := sampleResult()
	if back.ID != orig.ID || back.Title != orig.Title || len(back.Series) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if !back.Series[1].Reference {
		t.Fatal("reference flag lost")
	}
	p := back.Series[0].Points[0]
	if p.X != 100 || p.Mean != 13.6 || p.Std != 3.6 || p.Trials != 100 {
		t.Fatalf("point mangled: %+v", p)
	}
	if len(back.Notes) != 1 || back.Notes[0] != "a note" {
		t.Fatalf("notes mangled: %v", back.Notes)
	}
}

func TestJSONFieldNamesStable(t *testing.T) {
	// The JSON field names are a contract with external tooling.
	var buf bytes.Buffer
	if err := sampleResult().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id"`, `"series"`, `"points"`, `"mean"`, `"std"`, `"trials"`, `"xLabel"`, `"reference"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("json missing field %s:\n%s", want, buf.String())
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadAllJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("invalid json accepted")
	}
}

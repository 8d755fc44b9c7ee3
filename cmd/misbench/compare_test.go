package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFlagMatches(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	// Save a baseline, then compare an identical run against it.
	if err := run([]string{"-exp", "fig5", "-trials", "2", "-maxn", "50", "-format", "json", "-out", baseline}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig5", "-trials", "2", "-maxn", "50", "-compare", baseline}, &out); err != nil {
		t.Fatalf("identical run drifted: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "matches baseline") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestCompareFlagDetectsDrift(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	if err := run([]string{"-exp", "fig5", "-trials", "2", "-maxn", "50", "-format", "json", "-out", baseline}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// A different seed at tiny trial counts produces measurable drift at
	// an absurdly tight tolerance.
	var out bytes.Buffer
	err := run([]string{"-exp", "fig5", "-trials", "2", "-maxn", "50", "-seed", "999", "-compare", baseline, "-tolerance", "0.0001"}, &out)
	if err == nil {
		t.Fatal("drift not detected at 0.01% tolerance")
	}
}

func TestCompareFlagMissingBaseline(t *testing.T) {
	err := run([]string{"-exp", "fig5", "-trials", "1", "-maxn", "25", "-compare", "/definitely/missing.json"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// TestCompareFlagZ compares two experiments against one -exp all style
// baseline in the statistical mode: a rerun matches every point, and a
// run from another seed, which draws other graphs and other beeps,
// still lies within 4 standard errors of it on every point.
func TestCompareFlagZ(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	var all bytes.Buffer
	for _, id := range []string{"fig3", "fig5"} {
		if err := run([]string{"-exp", id, "-trials", "8", "-maxn", "60", "-format", "json"}, &all); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(baseline, all.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"1", "2"} {
		for _, id := range []string{"fig3", "fig5"} {
			var out bytes.Buffer
			if err := run([]string{"-exp", id, "-trials", "8", "-maxn", "60", "-seed", seed, "-compare", baseline, "-z", "4"}, &out); err != nil {
				t.Fatalf("%s seed %s: %v\n%s", id, seed, err, out.String())
			}
			if !strings.Contains(out.String(), "matches baseline") || !strings.Contains(out.String(), "z = 4") {
				t.Fatalf("%s seed %s: output %s", id, seed, out.String())
			}
		}
	}
	if err := run([]string{"-exp", "fig5", "-z", "4"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-z without -compare accepted")
	}
	if err := run([]string{"-exp", "fig5", "-compare", baseline, "-z", "NaN"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-z NaN accepted")
	}
}

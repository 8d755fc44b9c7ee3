package beepmis

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// fusedInstr matches one arm64 fused multiply-add or multiply-subtract
// line of the compiler's -S listing and captures its file:line and
// instruction.
var fusedInstr = regexp.MustCompile(`\(([^()]+:\d+)\)\s+(FN?M(?:ADD|SUB)[DS])\b`)

// TestNoFusedMultiplyAdd keeps fused multiply-adds off the result
// path. The Go spec lets a compiler fuse x*y + z into one instruction
// that skips the product's rounding, and an explicit float64(x*y)
// forbids it; amd64 never fuses, but arm64 does, so a report computed
// there could differ in its last bits from the same spec's report on
// amd64. The test cross-compiles every package that reaches a report
// or a seeded schedule for arm64 with -S and fails on each fused
// instruction, naming its file and line. (On ppc64le and riscv64 the
// compiler also lowers rng's uint64 conversion of a float through an
// exact FMSUB sequence, so this check stays on arm64.)
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles nine packages for arm64; skipped in -short mode")
	}
	for _, pkg := range []string{"rng", "graph", "mis", "sim", "fault", "stats", "scenario", "experiment", "load"} {
		t.Run(pkg, func(t *testing.T) {
			cmd := exec.Command("go", "build", "-gcflags=beepmis/internal/"+pkg+"=-S", "./internal/"+pkg+"/")
			cmd.Env = append(os.Environ(), "GOARCH=arm64")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("GOARCH=arm64 go build ./internal/%s: %v\n%s", pkg, err, out)
			}
			for _, line := range strings.Split(string(out), "\n") {
				if m := fusedInstr.FindStringSubmatch(line); m != nil {
					t.Errorf("%s: %s fuses a product into an add; round the product with float64(x*y)", m[1], m[2])
				}
			}
		})
	}
}

package fault

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"beepmis/internal/rng"
)

// TestNewBeepLossValidation pins NewBeepLoss's contract: zero loss needs
// no draw, a loss outside [0, 1) is refused, and a lossy run wider than
// MaxChannelNodes is refused with the bound named.
func TestNewBeepLossValidation(t *testing.T) {
	if b, err := NewBeepLoss(0, MaxChannelNodes+1); b != nil || err != nil {
		t.Fatalf("zero loss: %v, %v; want nil, nil", b, err)
	}
	for _, bad := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := NewBeepLoss(bad, 10); err == nil {
			t.Fatalf("loss %v accepted", bad)
		}
	}
	if _, err := NewBeepLoss(0.1, MaxChannelNodes); err != nil {
		t.Fatalf("loss rejected at the node bound: %v", err)
	}
	_, err := NewBeepLoss(0.1, MaxChannelNodes+1)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxChannelNodes)) {
		t.Fatalf("loss beyond the node bound: err %v, want the bound %d named", err, MaxChannelNodes)
	}
}

// TestBeepLossDraws checks Hears directly: each (node, round) draw is a
// pure function of the master seed, whatever order listeners are
// visited in; more emitters make silence rarer, at rate loss^k; and
// the draw's stream ids stay clear of the other fault namespaces.
func TestBeepLossDraws(t *testing.T) {
	master := rng.New(7)
	b, err := NewBeepLoss(0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	forward := make([]bool, 100)
	for v := range forward {
		forward[v] = b.Hears(master, 3, v, 2)
	}
	for v := len(forward) - 1; v >= 0; v-- {
		if b.Hears(master, 3, v, 2) != forward[v] {
			t.Fatalf("node %d: draw depends on visit order", v)
		}
	}
	const draws = 20000
	for _, k := range []int{1, 3} {
		deaf := 0
		for i := 0; i < draws; i++ {
			if !b.Hears(master, 1+i/100, i%100, k) {
				deaf++
			}
		}
		want := math.Pow(0.5, float64(k))
		if got := float64(deaf) / draws; math.Abs(got-want) > 5*math.Sqrt(want*(1-want)/draws) {
			t.Fatalf("k=%d: silence in %.4f of draws, want %.4f", k, got, want)
		}
	}
	for _, id := range []uint64{beepLossStreamID(MaxChannelNodes-1, 1<<20), beepLossStreamID(0, 1)} {
		if id&channelNamespace != 0 || id&WakeStreamID != 0 || id&beepLossNamespace == 0 {
			t.Fatalf("beep-loss stream id %#x overlaps another namespace", id)
		}
	}
}

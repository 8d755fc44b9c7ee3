package experiment

import (
	"bytes"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"beepmis/internal/sim"
)

func TestForTrialsRunsEveryTrial(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var ran [50]atomic.Int32
		err := ForTrials(workers, 50, func(trial int) error {
			ran[trial].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: trial %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForTrialsErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	err := ForTrials(1, 10, func(trial int) error {
		if trial >= 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if err := ForTrials(4, 0, func(int) error { return boom }); err != nil {
		t.Fatalf("zero trials returned %v", err)
	}
}

func TestCollectOK(t *testing.T) {
	vals := collectOK([]float64{1, 2, 3, 4}, []bool{true, false, true, false})
	if !reflect.DeepEqual(vals, []float64{1, 3}) {
		t.Fatalf("collectOK = %v", vals)
	}
}

// TestWorkerCountInvariance is the parallel runner's core contract:
// the same experiment with the same seed must produce bit-identical
// results for any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	base := Config{Seed: 3, Trials: 4, MaxN: 150}
	for _, id := range []string{"fig3", "thm1", "wakeup", "luby", "bits"} {
		var first *Result
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			res, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(first, res) {
				t.Fatalf("%s: results differ between 1 and %d workers", id, workers)
			}
		}
	}
}

// TestEngineInvariance pins experiment outputs across simulation
// engines and trial pools: every registered experiment must print the
// same JSON bytes under every engine spelling — the legacy scalar and
// bitset pins included — at one and at three trial workers.
func TestEngineInvariance(t *testing.T) {
	for _, id := range IDs() {
		var want []byte
		for _, engine := range []sim.Engine{sim.EngineAuto, sim.EngineColumnar, sim.EngineSparse, sim.EngineScalar, sim.EngineBitset} {
			for _, workers := range []int{1, 3} {
				res, err := Run(id, Config{Seed: 5, Trials: 3, MaxN: 120, Engine: engine, Workers: workers})
				if err != nil {
					t.Fatalf("%s engine=%v workers=%d: %v", id, engine, workers, err)
				}
				var b bytes.Buffer
				if err := res.WriteJSON(&b); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = b.Bytes()
				} else if !bytes.Equal(b.Bytes(), want) {
					t.Fatalf("%s: engine=%v workers=%d output differs from engine=auto workers=1", id, engine, workers)
				}
			}
		}
	}
}

// TestCensoredTrialsAreNoted forces every trial past a tiny round cap
// and checks the count reaches the notes through sweepPoint — for fig5,
// whose beeps series once dropped it — and through ablate-loss's own
// trial loop, which once recorded capped trials as data uncounted.
func TestCensoredTrialsAreNoted(t *testing.T) {
	for _, tc := range []struct{ id, note string }{
		{"fig5", "feedback n=100: 2/2 trials censored at the round cap"},
		{"ablate-loss", "loss 0.2: 2/2 trials censored at the round cap"},
	} {
		res, err := Run(tc.id, Config{Seed: 1, Trials: 2, MaxN: 100, roundCap: 2})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, note := range res.Notes {
			found = found || note == tc.note
		}
		if !found {
			t.Errorf("%s notes %q lack %q", tc.id, res.Notes, tc.note)
		}
	}
}

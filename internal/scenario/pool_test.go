package scenario

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForTrialsRunsEveryTrial(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
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

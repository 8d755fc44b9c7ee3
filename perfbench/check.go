package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// unitFlags is the slice of a scenario report unit that the output
// check reads.
type unitFlags struct {
	Unit                   int   `json:"unit"`
	Verified               *bool `json:"verified"`
	IndependentEveryRound  *bool `json:"independent_every_round"`
	IndependenceViolations *int  `json:"independence_violations"`
	MaximalAtTermination   *bool `json:"maximal_at_termination"`
}

// checkReport checks one executed job's result bytes: the report belongs
// to the job (its hash is the job id), has at least one unit, and every
// unit carries the verifier's flags, reports its independence breaches
// consistently, and ends maximal. The class says which specs must also
// be independent in every round and pass VerifyMIS.
func checkReport(body []byte, id string, c class) error {
	var r struct {
		Hash  string      `json:"hash"`
		Units []unitFlags `json:"units"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s report: %w", c.name, err)
	}
	if r.Hash != id {
		return fmt.Errorf("%s report hash %q, job id %q", c.name, r.Hash, id)
	}
	if len(r.Units) == 0 {
		return fmt.Errorf("%s report has no units", c.name)
	}
	for _, u := range r.Units {
		if u.Verified == nil || u.IndependentEveryRound == nil || u.IndependenceViolations == nil || u.MaximalAtTermination == nil {
			return fmt.Errorf("%s report unit %d: verifier flags missing", c.name, u.Unit)
		}
		if !*u.MaximalAtTermination {
			return fmt.Errorf("%s report unit %d: not maximal at termination", c.name, u.Unit)
		}
		if *u.IndependentEveryRound != (*u.IndependenceViolations == 0) {
			return fmt.Errorf("%s report unit %d: independent_every_round=%v with %d violations", c.name, u.Unit, *u.IndependentEveryRound, *u.IndependenceViolations)
		}
		if c.independent && !*u.IndependentEveryRound {
			return fmt.Errorf("%s report unit %d: %d independence violations", c.name, u.Unit, *u.IndependenceViolations)
		}
		if c.verified && !*u.Verified {
			return fmt.Errorf("%s report unit %d: not verified", c.name, u.Unit)
		}
	}
	return nil
}

// checkHit checks a cache hit's bytes against the first fetch of the
// same spec.
func checkHit(body, want []byte) error {
	if !bytes.Equal(body, want) {
		return fmt.Errorf("hit returned %d bytes that differ from the first fetch (%d bytes)", len(body), len(want))
	}
	return nil
}

// digestOps is how many leading schedule entries the result digest
// covers: few enough that every run of a workload completes them, so
// two runs of one seed print comparable digests.
const digestOps = 64

// digest is a SHA-256 over per-op result records in schedule order.
type digest struct {
	h   [][]byte
	ops int
}

func newDigest() *digest { return &digest{h: make([][]byte, digestOps)} }

// add records op i's result bytes if i is among the leading digestOps.
func (d *digest) add(i int, b []byte) {
	if i < digestOps {
		d.h[i] = append([]byte(nil), b...)
	}
}

// sum hashes the contiguous recorded prefix and reports its length.
func (d *digest) sum() (string, int) {
	h := sha256.New()
	n := 0
	for ; n < len(d.h) && d.h[n] != nil; n++ {
		h.Write(d.h[n])
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"beepmis/internal/service"
)

// inProcessMisd serves the real service handler, passing every result
// body through corrupt, and returns a misdProc pointed at it.
func inProcessMisd(t *testing.T, corrupt func(body []byte) []byte) *misdProc {
	t.Helper()
	mgr := service.New(service.Options{})
	api := mgr.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/result") {
			api.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, r)
		w.WriteHeader(rec.Code)
		_, _ = w.Write(corrupt(rec.Body.Bytes()))
	}))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := mgr.Close(ctx); err != nil {
			t.Error(err)
		}
	})
	return &misdProc{base: srv.URL, client: srv.Client()}
}

func TestCorruptedHitCountsInFailFrac(t *testing.T) {
	var fetches atomic.Int64
	p := inProcessMisd(t, func(body []byte) []byte {
		// The first fetch is the set-up's reference; corrupt the 4th.
		if fetches.Add(1) == 4 {
			return bytes.Replace(body, []byte(`"trials"`), []byte(`"trialz"`), 1)
		}
		return body
	})
	gold := loadGoldens(t)
	spec, err := freshCopy(gold[classQuick.name], 99)
	if err != nil {
		t.Fatal(err)
	}
	req := request{class: classQuick, body: spec}
	first, ref := missOp(p, nil, -1, req)
	if first.err != nil {
		t.Fatalf("executing the working spec: %v", first.err)
	}
	recs, _ := closedLoop(hitConns, 0, 10, 10, 0, time.Minute, func(i int) opRecord {
		rec, _ := hitOp(p, nil, i, req, ref)
		return rec
	})
	o := &outcome{}
	o.fold(recs)
	if o.attempted != 10 || o.failed != 1 || o.failFrac() != 0.1 {
		t.Fatalf("attempted %d failed %d fail_frac %v, want 10, 1, 0.1", o.attempted, o.failed, o.failFrac())
	}
	if len(o.errs) != 1 || !strings.Contains(o.errs[0], "differ from the first fetch") {
		t.Errorf("failure messages %q do not name the corrupted body", o.errs)
	}
	if n := beyond(len(o.lat), 50); percentile(o.lat, 100) <= percentile(o.lat, 50) || n < 1 {
		t.Error("the failed op should count as an infinite latency")
	}
}

func TestCorruptedMissReportFailsItsCheck(t *testing.T) {
	p := inProcessMisd(t, func(body []byte) []byte {
		return bytes.Replace(body, []byte(`"verified": true`), []byte(`"verified": false`), 1)
	})
	gold := loadGoldens(t)
	spec, err := freshCopy(gold[classQuick.name], 1234)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := missOp(p, nil, 0, request{class: classQuick, body: spec})
	if rec.err == nil || !strings.Contains(rec.err.Error(), "not verified") {
		t.Fatalf("miss op error = %v, want a failed verified check", rec.err)
	}
	o := &outcome{}
	o.fold([]opRecord{rec})
	if o.failFrac() != 1 {
		t.Errorf("fail_frac = %v, want 1", o.failFrac())
	}
}

func TestCheckReportRules(t *testing.T) {
	report := func(hash string, verified, independent bool, violations int) []byte {
		var b strings.Builder
		b.WriteString(`{"hash":"` + hash + `","units":[{"unit":0,"verified":`)
		b.WriteString(map[bool]string{true: "true", false: "false"}[verified])
		b.WriteString(`,"independent_every_round":`)
		b.WriteString(map[bool]string{true: "true", false: "false"}[independent])
		b.WriteString(`,"independence_violations":` + string(rune('0'+violations)))
		b.WriteString(`,"maximal_at_termination":true}]}`)
		return []byte(b.String())
	}
	cases := []struct {
		name string
		body []byte
		c    class
		ok   bool
	}{
		{"clean and verified", report("h", true, true, 0), classTiny, true},
		{"wrong job", report("x", true, true, 0), classTiny, false},
		{"clean spec with a breach", report("h", false, false, 2), classTiny, false},
		{"noisy spec with a reported breach", report("h", false, false, 2), classNoisy, true},
		{"noisy spec with an unreported breach", report("h", false, true, 2), classNoisy, false},
		{"crash spec unverified but maximal and independent", report("h", false, true, 0), classCrash, true},
		{"flags missing", []byte(`{"hash":"h","units":[{"unit":0}]}`), classNoisy, false},
		{"no units", []byte(`{"hash":"h","units":[]}`), classNoisy, false},
	}
	for _, c := range cases {
		if err := checkReport(c.body, "h", c.c); (err == nil) != c.ok {
			t.Errorf("%s: checkReport = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

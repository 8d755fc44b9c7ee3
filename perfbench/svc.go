package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"beepmis/internal/obs"
	"beepmis/internal/scenario"
)

// svc-miss and svc-hit drive the real misd binary, started with default
// flags (-jobs 1, default queue) from the repository root, over
// loopback HTTP in a closed loop.

const (
	// setupReps is how often an untraced run sets up: setup_s is their
	// median, since one 0.1-1 s set-up on a shared box varies by a
	// third.
	setupReps = 5
	// missConns keeps queueing out of svc-miss's latency: misd runs
	// one job at a time by default, so a second connection would only
	// wait in its queue.
	missConns = 1
	// hitConns is svc-hit's connection count, at most the core count of
	// the two-core box it was sized on.
	hitConns = 2
	// Schedule lengths are sized for these rates, well above today's
	// (about 4/s and 6000/s on a 2-vCPU VM), so a faster misd still
	// finds a schedule entry for every op it can serve.
	missRateBound = 200
	hitRateBound  = 50000
)

// minOpsP95 is the op count at which op_p95_ms has minTail ops beyond.
var minOpsP95 = minOpsFor(95)

// svcPhase is one timed closed-loop phase against misd, with the
// program's and the client's CPU and /metrics.json around it.
type svcPhase struct {
	recs          []opRecord
	wall          time.Duration
	cpu           time.Duration
	clientCPU     time.Duration
	rss           []float64 // misd's VmRSS samples, MB
	before, after scrape
}

func timedPhase(p *misdProc, conns, start, n, minOps int, secs, maxWall time.Duration, op func(i int) opRecord) (*svcPhase, error) {
	pid := p.cmd.Process.Pid
	before, err := p.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	sampler := sampleRSS(pid)
	recs, wall := closedLoop(conns, start, n, minOps, secs, maxWall, op)
	rss, rssErr := sampler.finish()
	self1 := selfCPU()
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, fmt.Errorf("misd CPU after the timed phase: %w", err)
	}
	if rssErr != nil {
		return nil, fmt.Errorf("misd resident set: %w", rssErr)
	}
	after, err := p.scrape()
	if err != nil {
		return nil, fmt.Errorf("misd after the timed phase: %w", err)
	}
	return &svcPhase{recs: recs, wall: wall, cpu: cpu1 - cpu0, clientCPU: self1 - self0, rss: rss, before: before, after: after}, nil
}

// delta is a counter's increase over the phase.
func (ph *svcPhase) delta(name string) float64 {
	return ph.after.value(name) - ph.before.value(name)
}

// svcWorkload is what differs between svc-miss and svc-hit.
type svcWorkload struct {
	conns int
	n     int // schedule length
	// warmup runs after readiness in every set-up.
	warmup func(p *misdProc) error
	// op runs schedule entry i, recording spans into tr when non-nil.
	op func(p *misdProc, tr *tracer, i int) opRecord
	// replayed lists the specs a traced run replays in-process, given
	// how many schedule entries the timed phase ran.
	replayed func(ran int) []request
	// setupJobs lists the executions a set-up ran (svc-hit's working
	// set), for the per-class service figures.
	setupJobs func() []opRecord
	// classes are stamped with the engine each resolves to.
	classes []class
}

// runSvc sets up misd, runs the timed phase and, when traced,
// replays executed specs through the in-process layers.
func runSvc(cfg config, gold map[string][]byte, w svcWorkload) (*outcome, error) {
	o := &outcome{}
	stampEngines(o, gold, w.classes)
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var p *misdProc
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		q, err := startMisd(cfg.misd, cfg.root)
		if err != nil {
			return nil, err
		}
		if err := w.warmup(q); err != nil {
			q.kill()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		if r < reps-1 {
			if err := q.stop(); err != nil {
				return nil, err
			}
			continue
		}
		p = q
	}
	defer func() {
		if p.alive() {
			p.kill()
		}
	}()

	secs := time.Duration(cfg.seconds) * time.Second
	maxWall := maxWallFor(cfg.seconds)
	if !cfg.trace {
		ph, err := timedPhase(p, w.conns, 0, w.n, minOpsP95, secs, maxWall, func(i int) opRecord { return w.op(p, nil, i) })
		if err != nil {
			return nil, err
		}
		if err := o.finishSvc(p, ph); err != nil {
			return nil, err
		}
		o.fold(ph.recs)
		o.wall, o.cpu = ph.wall, ph.cpu
		return o, p.stop()
	}

	// Traced: odd ops record spans, even ops do not, so the two p50s
	// see the same misd at the same moments and differ only by tracing.
	tr := newTracer()
	ph, err := timedPhase(p, w.conns, 0, w.n, 1, secs, maxWall, func(i int) opRecord {
		if i%2 == 1 {
			return w.op(p, tr, i)
		}
		return w.op(p, nil, i)
	})
	if err != nil {
		return nil, err
	}
	if err := o.finishSvc(p, ph); err != nil {
		return nil, err
	}
	o.fold(ph.recs)
	if err := p.stop(); err != nil {
		return nil, err
	}

	rp := &replayer{tr: tr, em: &obs.EngineMetrics{}, nextOp: 1 << 20}
	opClass := make(map[int]string)
	for _, req := range w.replayed(len(ph.recs)) {
		op, err := rp.replay(req)
		if err != nil {
			return nil, err
		}
		opClass[op] = req.class.name
	}
	fileHash := 0.0
	if slices.Contains(w.classes, classFile) {
		var file struct {
			Graph scenario.GraphSpec `json:"graph"`
		}
		if err := json.Unmarshal(gold[classFile.name], &file); err != nil {
			return nil, err
		}
		if fileHash, err = fileHashUs(tr, file.Graph.Path, 50); err != nil {
			return nil, err
		}
	}
	o.spans = tr.snapshot()
	o.layers = svcLayers(ph, o.spans, w.setupJobs())
	o.layers["graph.file_hash_us"] = fileHash
	replayLayers(o.layers, rp, o.spans, opClass)
	o.notes = append(o.notes, fmt.Sprintf("replay: %d trials, %d failed their final check, %d independence breaches under channel faults",
		rp.trials, rp.verifyFailures, rp.noisyViolations))
	return o, nil
}

// finishSvc reads misd's resident set and runtime stamps at the end of
// the timed phase and fails the run if misd exited during it.
func (o *outcome) finishSvc(p *misdProc, ph *svcPhase) error {
	if !p.alive() {
		return fmt.Errorf("misd exited during the timed phase: %v", p.err)
	}
	peak, err := procStatusMB(p.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return err
	}
	o.rssMB, o.peakMB = median(ph.rss), peak
	o.stamps = append(o.stamps,
		fmt.Sprintf("misd_gomaxprocs=%g", ph.after.value("go_sched_gomaxprocs_threads")),
		fmt.Sprintf("misd_nproc=%g", ph.after.value("process_cpu_count")))
	return nil
}

// svcLayers derives the service, runtime and client per-layer metrics
// from a traced phase: span durations, job snapshots, and /metrics.json
// deltas.
func svcLayers(ph *svcPhase, spans []span, setupJobs []opRecord) map[string]float64 {
	l := make(map[string]float64)
	ops := float64(len(ph.recs))
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, 50)
	}
	l["service.submit_ms"] = p50(durations(spans, "service.submit"))
	l["service.fetch_ms"] = p50(durations(spans, "service.fetch"))
	l["service.wait_ms"] = p50(durations(spans, "service.wait"))

	// Executed jobs: the traced phase's misses, or the set-up's working
	// set when the timed ops are all hits.
	jobs := make(map[string][]float64)
	var queue, overhead, kb []float64
	executed := 0
	for _, r := range ph.recs {
		if r.err != nil {
			continue
		}
		kb = append(kb, float64(r.bytes)/1000)
		overhead = append(overhead, float64(r.lat.Nanoseconds())/1e6-r.queueMs-r.runMs)
		if r.runMs > 0 {
			executed++
			queue = append(queue, r.queueMs)
			jobs[r.class] = append(jobs[r.class], r.runMs)
		}
	}
	if executed == 0 {
		for _, r := range setupJobs {
			queue = append(queue, r.queueMs)
			jobs[r.class] = append(jobs[r.class], r.runMs)
		}
	}
	l["service.queue_ms"] = mean(queue)
	for c, runs := range jobs {
		l["service.run_ms."+c] = mean(runs)
	}
	l["service.overhead_ms"] = p50(overhead)
	l["service.result_kb"] = mean(kb)
	subs := ph.delta("beepmis_service_cache_hits_total") + ph.delta("beepmis_service_cache_misses_total") +
		ph.delta("beepmis_service_coalesced_total") + ph.delta("beepmis_service_rejected_total")
	if subs > 0 {
		l["service.hit_ratio"] = ph.delta("beepmis_service_cache_hits_total") / subs
	}
	l["service.executions"] = ph.delta("beepmis_service_jobs_done_total")
	if ops > 0 {
		l["gc.alloc_mb_per_op"] = ph.delta("go_memstats_alloc_bytes_total") / (1 << 20) / ops
		l["gc.cycles_per_op"] = ph.delta("go_gc_cycles_total") / ops
		l["client.cpu_ms_per_op"] = float64(ph.clientCPU.Nanoseconds()) / 1e6 / ops
	}
	l["trace.overhead_frac"] = overheadFrac(ph.recs)
	return l
}

// overheadFrac compares the p50 latency of the traced (odd) ops with
// that of the untraced (even) ops of one interleaved phase.
func overheadFrac(recs []opRecord) float64 {
	lat := latencies(recs)
	var traced, untraced []float64
	for i, x := range lat {
		if i%2 == 1 {
			traced = append(traced, x)
		} else {
			untraced = append(untraced, x)
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return percentile(traced, 50)/percentile(untraced, 50) - 1
}

// stampEngines records the engine each class's compiled units plan to
// run (Unit.PlannedEngine), joined in unit order when a sweep mixes them.
func stampEngines(o *outcome, gold map[string][]byte, classes []class) {
	for _, c := range classes {
		comp, err := scenario.ParseCompiledBytes(gold[c.name])
		if err != nil {
			o.stamps = append(o.stamps, fmt.Sprintf("engine.%s=error(%v)", c.name, err))
			continue
		}
		var names []string
		seen := make(map[string]bool)
		for _, u := range comp.Units {
			if n := u.PlannedEngine.String(); !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		o.stamps = append(o.stamps, fmt.Sprintf("engine.%s=%s", c.name, strings.Join(names, "+")))
	}
}

// missOp is one svc-miss request: submit a fresh spec, follow its SSE
// stream to the terminal event, fetch the result, then check it.
func missOp(p *misdProc, tr *tracer, i int, req request) (opRecord, []byte) {
	t0 := time.Now()
	root := tr.begin("op", i, -1)
	s := tr.begin("service.submit", i, root)
	v, _, err := p.submit(req.body)
	tr.end(s)
	if err == nil && v.Cached {
		err = errors.New("a fresh-seed spec hit the cache")
	}
	var final jobView
	if err == nil {
		s = tr.begin("service.wait", i, root)
		final, err = p.await(v.ID)
		tr.end(s)
	}
	if err == nil && final.Status != "done" {
		err = fmt.Errorf("job %s %s: %s", v.ID, final.Status, final.Error)
	}
	var body []byte
	if err == nil {
		s = tr.begin("service.fetch", i, root)
		body, err = p.fetch(v.ID)
		tr.end(s)
	}
	lat := time.Since(t0)
	tr.end(root)
	if err == nil {
		err = checkReport(body, v.ID, req.class)
	}
	return opRecord{lat: lat, err: err, class: req.class.name, queueMs: final.QueueMs, runMs: final.RunMs, bytes: len(body)}, body
}

// hitOp is one svc-hit request: re-submit a working-set spec, which must
// be a cache hit on a finished job, fetch its bytes, then compare them
// with the first fetch.
func hitOp(p *misdProc, tr *tracer, i int, req request, want []byte) (opRecord, []byte) {
	t0 := time.Now()
	root := tr.begin("op", i, -1)
	s := tr.begin("service.submit", i, root)
	v, _, err := p.submit(req.body)
	tr.end(s)
	if err == nil && (!v.Cached || v.Status != "done") {
		err = fmt.Errorf("expected a cached finished job, got cached=%v status=%s", v.Cached, v.Status)
	}
	var body []byte
	if err == nil {
		s = tr.begin("service.fetch", i, root)
		body, err = p.fetch(v.ID)
		tr.end(s)
	}
	lat := time.Since(t0)
	tr.end(root)
	if err == nil {
		err = checkHit(body, want)
	}
	return opRecord{lat: lat, err: err, class: req.class.name, bytes: len(body)}, body
}

// runSvcMiss: every request is a fresh-seed copy of load-tiny,
// sweep-algorithms or noisy-async, so every request executes.
func runSvcMiss(cfg config) (*outcome, error) {
	classes := []class{classTiny, classSweep, classNoisy}
	gold, err := goldens(cfg.root, classes)
	if err != nil {
		return nil, err
	}
	n := int(maxWallFor(cfg.seconds).Seconds())*missRateBound + minOpsP95
	sched, err := missSchedule(gold, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	warm, err := warmupRequests(gold, cfg.seed, classes)
	if err != nil {
		return nil, err
	}
	dg := newDigest()
	o, err := runSvc(cfg, gold, svcWorkload{
		conns: missConns,
		n:     len(sched),
		warmup: func(p *misdProc) error {
			for _, req := range warm {
				if rec, _ := missOp(p, nil, -1, req); rec.err != nil {
					return fmt.Errorf("warm-up %s: %w", req.class.name, rec.err)
				}
			}
			return nil
		},
		op: func(p *misdProc, tr *tracer, i int) opRecord {
			rec, body := missOp(p, tr, i, sched[i])
			if rec.err == nil {
				dg.add(i, body)
			}
			return rec
		},
		replayed: func(ran int) []request {
			return firstPerClass(sched[:ran], replayPerClass)
		},
		setupJobs: func() []opRecord { return nil },
		classes:   classes,
	})
	if err != nil {
		return nil, err
	}
	o.digest, o.digestOps = dg.sum()
	return o, nil
}

// runSvcHit: set-up executes a 64-spec working set; every timed request
// re-submits one of them and fetches its cached bytes.
func runSvcHit(cfg config) (*outcome, error) {
	classes := []class{classFile, classNoisy, classCrash, classQuick}
	gold, err := goldens(cfg.root, classes)
	if err != nil {
		return nil, err
	}
	set, err := hitSet(gold, cfg.seed)
	if err != nil {
		return nil, err
	}
	sched := hitSchedule(cfg.seed, int(maxWallFor(cfg.seconds).Seconds())*hitRateBound+minOpsP95)
	var refs [][]byte
	var setupJobs []opRecord
	dg := newDigest()
	o, err := runSvc(cfg, gold, svcWorkload{
		conns: hitConns,
		n:     len(sched),
		warmup: func(p *misdProc) error {
			// Execute the working set, keeping each spec's first fetch
			// as the reference its hits must reproduce. Every set-up
			// runs the same specs on a fresh misd, so the bytes must
			// also match the previous set-up's.
			first := refs == nil
			jobs := make([]opRecord, 0, len(set))
			for k, req := range set {
				rec, body := missOp(p, nil, -1, req)
				if rec.err != nil {
					return fmt.Errorf("working set %d (%s): %w", k, req.class.name, rec.err)
				}
				if first {
					refs = append(refs, body)
				} else if err := checkHit(body, refs[k]); err != nil {
					return fmt.Errorf("working set %d (%s) differs between set-ups: %w", k, req.class.name, err)
				}
				jobs = append(jobs, rec)
			}
			setupJobs = jobs
			for k, req := range set {
				if rec, _ := hitOp(p, nil, -1, req, refs[k]); rec.err != nil {
					return fmt.Errorf("warm-up hit %d (%s): %w", k, req.class.name, rec.err)
				}
			}
			return nil
		},
		op: func(p *misdProc, tr *tracer, i int) opRecord {
			k := sched[i]
			rec, body := hitOp(p, tr, i, set[k], refs[k])
			if rec.err == nil {
				dg.add(i, body)
			}
			return rec
		},
		replayed:  func(int) []request { return firstPerClass(set, replayPerClass) },
		setupJobs: func() []opRecord { return setupJobs },
		classes:   classes,
	})
	if err != nil {
		return nil, err
	}
	o.digest, o.digestOps = dg.sum()
	return o, nil
}

// firstPerClass returns the first k requests of each class, in order.
func firstPerClass(reqs []request, k int) []request {
	seen := make(map[string]int)
	var out []request
	for _, r := range reqs {
		if seen[r.class.name] < k {
			seen[r.class.name]++
			out = append(out, r)
		}
	}
	return out
}

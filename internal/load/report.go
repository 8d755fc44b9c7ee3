package load

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"beepmis/internal/obs"
)

// LatencySummary folds one client histogram: exact count and mean,
// interpolated quantiles (2× bucket resolution, same as the server's
// exposition — the two sides are directly comparable).
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P95Ns  float64 `json:"p95_ns"`
	P99Ns  float64 `json:"p99_ns"`
}

func summarize(h *obs.Histogram) LatencySummary {
	snap := h.Snapshot()
	return LatencySummary{
		Count:  snap.Count,
		MeanNs: snap.Mean(),
		P50Ns:  snap.Quantile(0.50),
		P95Ns:  snap.Quantile(0.95),
		P99Ns:  snap.Quantile(0.99),
	}
}

// Report is one load run's machine-readable record. It carries the
// same toolchain stamps as misbench's records (goversion, gomaxprocs,
// numcpu, timestamp) so service-level rows ride in the same trajectory
// files as engine rows, distinguished by the tool field.
type Report struct {
	Tool string `json:"tool"` // always "misload"
	Mode string `json:"mode"`
	// Arrival and OfferedRate describe open-loop runs; Concurrency
	// describes closed-loop runs.
	Arrival     string  `json:"arrival,omitempty"`
	OfferedRate float64 `json:"offered_rate,omitempty"`
	Concurrency int     `json:"concurrency,omitempty"`
	Requests    int     `json:"requests"`
	HitFraction float64 `json:"hit_fraction"`
	Subscribers int     `json:"subscribers,omitempty"`
	Seed        uint64  `json:"seed"`

	// Outcome counts (client side). Completed + Rejected + Errors +
	// Shed = Submitted + Shed = schedule length on a run that wasn't
	// cancelled.
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	CacheHits uint64 `json:"cache_hits"`
	Rejected  uint64 `json:"rejected"`
	Errors    uint64 `json:"errors"`
	Shed      uint64 `json:"shed,omitempty"`
	SSEEvents uint64 `json:"sse_events,omitempty"`
	SSEErrors uint64 `json:"sse_errors,omitempty"`

	// WallNs is the dispatch-to-last-completion wall time;
	// AchievedRPS is Completed over that wall clock — against
	// OfferedRate it locates the saturation knee.
	WallNs      int64   `json:"wall_ns"`
	AchievedRPS float64 `json:"achieved_rps"`

	// Client-side latency views. E2EMiss is the fresh-execution subset
	// — the population the server's queue+run histograms describe.
	Submit  LatencySummary `json:"submit_ns"`
	E2E     LatencySummary `json:"e2e_ns"`
	E2EMiss LatencySummary `json:"e2e_miss_ns"`

	// Server is the folded before/after scrape; Findings are
	// cross-check disagreements and degraded-run notes. An empty
	// findings list is the report saying both clocks agree.
	Server   *ServerView `json:"server,omitempty"`
	Findings []string    `json:"findings,omitempty"`

	GoVersion  string `json:"goversion"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Timestamp  string `json:"timestamp"` // ISO-8601 (RFC 3339), UTC
}

// buildReport folds the recorder and the server view into the record.
func buildReport(cfg Config, rec *Recorder, wall time.Duration, server *ServerView, findings []string) *Report {
	rep := &Report{
		Tool:        "misload",
		Mode:        cfg.Mode,
		Requests:    cfg.Requests,
		HitFraction: cfg.HitFraction,
		Subscribers: cfg.Subscribers * cfg.SubscribeJobs,
		Seed:        cfg.Seed,
		Submitted:   rec.Submitted.Value(),
		Completed:   rec.Completed.Value(),
		CacheHits:   rec.CacheHits.Value(),
		Rejected:    rec.Rejected.Value(),
		Errors:      rec.Errors.Value(),
		Shed:        rec.Shed.Value(),
		SSEEvents:   rec.SSEEvents.Value(),
		SSEErrors:   rec.SSEErrors.Value(),
		WallNs:      wall.Nanoseconds(),
		Submit:      summarize(&rec.SubmitNs),
		E2E:         summarize(&rec.E2ENs),
		E2EMiss:     summarize(&rec.MissNs),
		Server:      server,
		Findings:    findings,
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	switch cfg.Mode {
	case ModeOpen:
		rep.Arrival = cfg.Arrival
		rep.OfferedRate = cfg.Rate
	default:
		rep.Concurrency = cfg.Concurrency
	}
	if wall > 0 {
		rep.AchievedRPS = float64(rep.Completed) / wall.Seconds()
	}
	return rep
}

// crossCheck compares the client's and the server's accounts of the
// same run and appends a finding for every disagreement. The two
// clocks measure different spans — the client adds network, response
// handling and up to one poll interval per request — so the check uses
// a one-sided floor (client can never be faster than the server) and a
// generous ceiling (client overhead is bounded by poll granularity
// plus a scheduling allowance), both on the fresh-execution means,
// which are exact on both sides.
func crossCheck(rep *Report, cfg Config) {
	if rep.Server == nil || rep.E2EMiss.Count == 0 {
		return
	}
	server := rep.Server.QueueMeanNs + rep.Server.RunMeanNs
	if server <= 0 {
		return
	}
	client := rep.E2EMiss.MeanNs
	// Floor: the client span contains the server span. 10% slack
	// covers population mismatch (coalesced submissions complete
	// client-side without a server execution of their own).
	if client < server*0.90 {
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"client/server skew: client e2e-miss mean %.0fns is below the server's queue+run mean %.0fns — the client claims to be faster than the work it waited for",
			client, server))
	}
	// Ceiling: client overhead per request is bounded by two poll
	// intervals plus a fixed scheduling/transport allowance; far past
	// that, the harness itself (not the service) is the bottleneck and
	// its latency numbers stop describing the server.
	allowance := 2*float64(cfg.PollInterval.Nanoseconds()) + 50e6
	if client > 2*server+allowance {
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"client/server skew: client e2e-miss mean %.0fns exceeds 2× the server's queue+run mean %.0fns plus the %.0fns poll/transport allowance — client-side overhead is distorting the measurement",
			client, server, allowance))
	}
}

// WriteText renders the human-readable summary.
func (r *Report) WriteText(w io.Writer) {
	ms := func(ns float64) float64 { return ns / 1e6 }
	shape := fmt.Sprintf("closed-loop, %d workers", r.Concurrency)
	if r.Mode == ModeOpen {
		shape = fmt.Sprintf("open-loop, %.1f req/s %s arrivals", r.OfferedRate, r.Arrival)
	}
	fmt.Fprintf(w, "misload: %s, %d requests, hit fraction %.2f, seed %d\n", shape, r.Requests, r.HitFraction, r.Seed)
	fmt.Fprintf(w, "  outcome: %d completed (%d cached), %d rejected, %d errors, %d shed in %.2fs → %.1f req/s achieved\n",
		r.Completed, r.CacheHits, r.Rejected, r.Errors, r.Shed, float64(r.WallNs)/1e9, r.AchievedRPS)
	fmt.Fprintf(w, "  submit   p50 %.2fms  p95 %.2fms  p99 %.2fms\n", ms(r.Submit.P50Ns), ms(r.Submit.P95Ns), ms(r.Submit.P99Ns))
	fmt.Fprintf(w, "  e2e      p50 %.2fms  p95 %.2fms  p99 %.2fms  mean %.2fms\n", ms(r.E2E.P50Ns), ms(r.E2E.P95Ns), ms(r.E2E.P99Ns), ms(r.E2E.MeanNs))
	if r.E2EMiss.Count > 0 {
		fmt.Fprintf(w, "  e2e-miss p50 %.2fms  p95 %.2fms  p99 %.2fms  mean %.2fms (%d fresh executions)\n",
			ms(r.E2EMiss.P50Ns), ms(r.E2EMiss.P95Ns), ms(r.E2EMiss.P99Ns), ms(r.E2EMiss.MeanNs), r.E2EMiss.Count)
	}
	if r.SSEEvents > 0 || r.SSEErrors > 0 {
		fmt.Fprintf(w, "  sse: %d events received, %d connection errors\n", r.SSEEvents, r.SSEErrors)
	}
	if s := r.Server; s != nil {
		fmt.Fprintf(w, "  server: %d done / %d failed, %d hits / %d misses / %d coalesced, %d rejected; queue mean %.2fms, run mean %.2fms\n",
			s.JobsDone, s.JobsFailed, s.CacheHits, s.CacheMisses, s.Coalesced, s.Rejected, ms(s.QueueMeanNs), ms(s.RunMeanNs))
		fmt.Fprintf(w, "  server: queue high-water %d, %d events dropped\n", s.QueueHighWater, s.EventsDropped)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(w, "  finding: %s\n", f)
	}
}

package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// jsonSample mirrors the /metrics.json exposition entry (one series:
// scalar value for counters/gauges, count/sum plus interpolated
// quantiles for histograms).
type jsonSample struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels"`
	Type   string  `json:"type"`
	Value  float64 `json:"value"`
	Count  uint64  `json:"count"`
	Sum    uint64  `json:"sum"`
	Mean   float64 `json:"mean"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

// metricsSnapshot indexes one /metrics.json scrape by name|labels.
type metricsSnapshot map[string]jsonSample

func (s metricsSnapshot) value(name, labels string) float64 {
	return s[name+"|"+labels].Value
}

// scrapeMetrics fetches and indexes the server's JSON exposition.
func scrapeMetrics(ctx context.Context, client *http.Client, baseURL string) (metricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics.json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("load: /metrics.json returned %d", resp.StatusCode)
	}
	var samples []jsonSample
	if err := json.NewDecoder(resp.Body).Decode(&samples); err != nil {
		return nil, err
	}
	snap := make(metricsSnapshot, len(samples))
	for _, s := range samples {
		snap[s.Name+"|"+s.Labels] = s
	}
	return snap, nil
}

// ServerView is the server's own account of the run, folded from the
// before/after /metrics.json scrapes: counters as deltas (what this
// run caused), gauges as after-values (where the run left the server),
// latency histograms as run-scoped means (delta sum over delta count —
// exact, since the histograms carry exact sums). It is the second
// witness the cross-check holds the client's numbers against.
type ServerView struct {
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Coalesced     uint64 `json:"coalesced"`
	Rejected      uint64 `json:"rejected"`
	EventsDropped uint64 `json:"events_dropped"`
	// QueueHighWater is the server's highest queue depth since it
	// started, read from the after-scrape.
	QueueHighWater int64 `json:"queue_high_water"`
	// QueueMeanNs / RunMeanNs are run-scoped submit→start and
	// start→finish means per executed job.
	QueueMeanNs float64 `json:"queue_mean_ns"`
	RunMeanNs   float64 `json:"run_mean_ns"`
	// PhaseNs is the engine's per-phase time spent during the run
	// (delta of the per-phase duration sums), the breakdown that says
	// where the served work actually went.
	PhaseNs map[string]int64 `json:"phase_ns,omitempty"`
}

// foldServerView reduces two scrapes to the run-scoped server story.
func foldServerView(before, after metricsSnapshot) *ServerView {
	delta := func(name, labels string) uint64 {
		d := after.value(name, labels) - before.value(name, labels)
		if d < 0 {
			return 0 // server restarted mid-run; deltas are meaningless but must not underflow
		}
		return uint64(d)
	}
	histMean := func(name string) float64 {
		b, a := before[name+"|"], after[name+"|"]
		if a.Count <= b.Count {
			return 0
		}
		return float64(a.Sum-b.Sum) / float64(a.Count-b.Count)
	}
	v := &ServerView{
		JobsDone:       delta("beepmis_service_jobs_done_total", ""),
		JobsFailed:     delta("beepmis_service_jobs_failed_total", ""),
		CacheHits:      delta("beepmis_service_cache_hits_total", ""),
		CacheMisses:    delta("beepmis_service_cache_misses_total", ""),
		Coalesced:      delta("beepmis_service_coalesced_total", ""),
		Rejected:       delta("beepmis_service_rejected_total", ""),
		EventsDropped:  delta("beepmis_service_events_dropped_total", ""),
		QueueHighWater: int64(after.value("beepmis_service_queue_high_water", "")),
		QueueMeanNs:    histMean("beepmis_service_queue_latency_ns"),
		RunMeanNs:      histMean("beepmis_service_run_latency_ns"),
	}
	for key, a := range after {
		if !strings.HasPrefix(key, "beepmis_engine_phase_duration_ns|") {
			continue
		}
		b := before[key]
		if a.Sum <= b.Sum {
			continue
		}
		phase := strings.TrimSuffix(strings.TrimPrefix(a.Labels, `phase="`), `"`)
		if v.PhaseNs == nil {
			v.PhaseNs = make(map[string]int64)
		}
		v.PhaseNs[phase] = int64(a.Sum - b.Sum)
	}
	return v
}

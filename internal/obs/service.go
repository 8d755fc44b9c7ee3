package obs

// ServiceMetrics is the job-service instrumentation bundle: queue and
// latency signals for the misd deployment, recorded by service.Manager.
// Like EngineMetrics it is all lock-free primitives — the manager
// records under its own mutex already, but SSE fan-out and future
// multi-pool backends must not have to serialise on a metrics lock.
// The zero value is ready to use.
type ServiceMetrics struct {
	// QueueDepth is the number of jobs admitted but not yet running.
	QueueDepth Gauge
	// QueueLatencyNs records submit→start wall time per executed job.
	QueueLatencyNs Histogram
	// RunLatencyNs records start→finish wall time per executed job.
	RunLatencyNs Histogram
	// CacheHits counts submissions served from a finished job's cached
	// result; Coalesced counts those absorbed by a queued or running
	// duplicate; CacheMisses counts submissions that scheduled a new
	// execution.
	CacheHits   Counter
	CacheMisses Counter
	Coalesced   Counter
	// Evictions counts finished jobs dropped by the retention bound.
	Evictions Counter
	// Rejected counts submissions refused with ErrBusy (HTTP 429).
	Rejected Counter
	// JobsDone / JobsFailed count terminal outcomes.
	JobsDone   Counter
	JobsFailed Counter
	// Subscribers is the current SSE/progress subscriber count;
	// EventsDropped counts events lost to slow subscribers' full
	// buffers (the publish overflow path).
	Subscribers   Gauge
	EventsDropped Counter
	// QueueHighWater is the highest queue depth observed since process
	// start — the saturation witness misload folds into its reports.
	QueueHighWater Gauge
}

// Register exposes the bundle under the beepmis_service_* families.
func (m *ServiceMetrics) Register(r *Registry) {
	r.RegisterGauge("beepmis_service_queue_depth", "", "Jobs admitted but not yet running.", &m.QueueDepth)
	r.RegisterHistogram("beepmis_service_queue_latency_ns", "", "Submit-to-start wall time per executed job in nanoseconds.", &m.QueueLatencyNs)
	r.RegisterHistogram("beepmis_service_run_latency_ns", "", "Start-to-finish wall time per executed job in nanoseconds.", &m.RunLatencyNs)
	r.RegisterCounter("beepmis_service_cache_hits_total", "", "Submissions served from a finished job's cached result.", &m.CacheHits)
	r.RegisterCounter("beepmis_service_cache_misses_total", "", "Submissions that scheduled a new execution.", &m.CacheMisses)
	r.RegisterCounter("beepmis_service_coalesced_total", "", "Submissions absorbed by an in-flight duplicate.", &m.Coalesced)
	r.RegisterCounter("beepmis_service_evictions_total", "", "Finished jobs dropped by the retention bound.", &m.Evictions)
	r.RegisterCounter("beepmis_service_rejected_total", "", "Submissions refused with queue-full backpressure (HTTP 429).", &m.Rejected)
	r.RegisterCounter("beepmis_service_jobs_done_total", "", "Jobs finished successfully.", &m.JobsDone)
	r.RegisterCounter("beepmis_service_jobs_failed_total", "", "Jobs finished in failure.", &m.JobsFailed)
	r.RegisterGauge("beepmis_service_sse_subscribers", "", "Current progress-stream subscriber count.", &m.Subscribers)
	r.RegisterCounter("beepmis_service_events_dropped_total", "", "Progress events dropped on slow subscribers' full buffers.", &m.EventsDropped)
	r.RegisterGauge("beepmis_service_queue_high_water", "", "Highest queue depth observed since process start.", &m.QueueHighWater)
}

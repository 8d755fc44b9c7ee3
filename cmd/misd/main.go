// Command misd serves declarative MIS simulation scenarios over HTTP:
// submit a scenario spec, poll or stream its progress, fetch the result
// JSON. Identical specs (by content hash — engine/shards/workers and
// other performance knobs excluded) are deduplicated: concurrent
// duplicates coalesce onto one running job and repeats are served from
// the result cache without re-execution.
//
// Usage:
//
//	misd -addr :8080 -jobs 2 -queue 64
//	misd -addr :8080 -jobs 1 -autoscale-max 8   # queue-depth autoscaling pool
//
//	curl -X POST --data-binary @scenarios/quickstart.json localhost:8080/v1/scenarios
//	curl -X POST --data-binary @scenarios/noisy-async.json localhost:8080/v1/scenarios
//	curl localhost:8080/v1/scenarios/<id>
//	curl localhost:8080/v1/scenarios/<id>/result
//	curl -N localhost:8080/v1/scenarios/<id>/events
//
// Operational surface (beside the /v1 API):
//
//	GET /metrics    Prometheus text exposition: engine phase timings,
//	                service queue/cache/latency telemetry, Go runtime
//	GET /buildinfo  go version, VCS revision, dirty flag
//	GET /debug/vars expvar (JSON mirror of the exposition, plus cmdline)
//	/debug/pprof/*  profiling endpoints, only with -pprof
//
// Specs may carry a "faults" block (channel noise, adversarial wake-up,
// transient outages — see internal/fault); it changes results, so it is
// part of the content hash, and every noisy run is checked round by
// round by the fault verifier, whose findings appear in the result
// JSON (independent_every_round, stable_rounds, …).
//
// The same spec files drive the one-shot CLI (misrun -scenario); both
// paths produce byte-identical result JSON.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"beepmis/internal/obs"
	"beepmis/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "misd:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until ctx is cancelled, then shuts
// down gracefully: stop accepting, drain in-flight HTTP, drain the job
// pool. ready (test hook) receives the bound address once listening.
func run(ctx context.Context, args []string, stdout io.Writer, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("misd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		jobs         = fs.Int("jobs", 1, "concurrent scenario executions (the autoscaler's minimum when -autoscale-max is set)")
		autoMax      = fs.Int("autoscale-max", 0, "autoscale the job pool between -jobs and this bound on queue-depth watermarks (0 = fixed pool)")
		queue        = fs.Int("queue", 64, "queued-scenario bound (beyond it submissions get 429)")
		trialWrk     = fs.Int("trial-workers", 0, "per-scenario trial pool override (0 = honour each spec)")
		grace        = fs.Duration("grace", 30*time.Second, "graceful shutdown budget for in-flight HTTP")
		drainTimeout = fs.Duration("drain-timeout", 0, "bound on waiting for in-flight jobs during shutdown (0 = -grace)")
		pprofOn      = fs.Bool("pprof", false, "expose /debug/pprof/* (CPU, heap, mutex profiles) on the same port")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs < 1 {
		return fmt.Errorf("-jobs must be ≥ 1 (got %d)", *jobs)
	}
	// Reject rather than silently substitute defaults: "-queue 0" is a
	// misconfiguration, not a request for the library default of 64.
	if *queue < 1 {
		return fmt.Errorf("-queue must be ≥ 1 (got %d)", *queue)
	}
	if *trialWrk < 0 {
		return fmt.Errorf("-trial-workers must be ≥ 0 (got %d)", *trialWrk)
	}
	if *autoMax != 0 && *autoMax < *jobs {
		return fmt.Errorf("-autoscale-max must be ≥ -jobs (got %d < %d)", *autoMax, *jobs)
	}
	serviceMetrics := &obs.ServiceMetrics{}
	engineMetrics := &obs.EngineMetrics{}
	mgr := service.New(service.Options{
		Workers:       *jobs,
		MaxWorkers:    *autoMax,
		QueueCap:      *queue,
		TrialWorkers:  *trialWrk,
		Metrics:       serviceMetrics,
		EngineMetrics: engineMetrics,
	})
	reg := newRegistry(serviceMetrics, engineMetrics)
	server := &http.Server{Handler: rootHandler(mgr, reg, *pprofOn)}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	pool := fmt.Sprintf("%d job workers", *jobs)
	if *autoMax > *jobs {
		pool = fmt.Sprintf("autoscaling %d..%d job workers", *jobs, *autoMax)
	}
	fmt.Fprintf(stdout, "misd: listening on %s (%s, queue %d)\n", ln.Addr(), pool, *queue)
	if ready != nil {
		ready(ln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Shutdown ordering matters for load balancers: flip readiness
	// first (readyz 503s while the HTTP surface is still fully alive),
	// drain the job pool under its own bound, and only then stop
	// serving — so in-flight jobs stay observable (status, SSE,
	// results) for the whole drain window.
	fmt.Fprintln(stdout, "misd: draining")
	mgr.Drain()
	drainBudget := *drainTimeout
	if drainBudget <= 0 {
		drainBudget = *grace
	}
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainBudget)
	defer cancelDrain()
	if err := mgr.Close(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		// Clients still streaming events at the deadline are cut off.
		_ = server.Close()
	}
	fmt.Fprintln(stdout, "misd: stopped")
	return nil
}

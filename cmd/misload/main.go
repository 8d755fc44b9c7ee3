// Command misload drives a live misd with deterministic load and
// reports service-level latency and throughput from both ends of the
// wire: its own request clocks and the server's /metrics.json, scraped
// before and after the run and folded into the same report. A
// disagreement between the two views is printed as a finding, not
// averaged away.
//
// Usage:
//
//	misd -addr :8080 -jobs 4 &
//	misload -url http://127.0.0.1:8080 -wait-ready 10s \
//	        -mode closed -c 8 -n 200 -hit 0.5 -spec scenarios/quickstart.json
//	misload -url http://127.0.0.1:8080 -mode open -rate 120 -arrival poisson \
//	        -n 500 -spec scenarios/quickstart.json,scenarios/noisy-async.json -json
//
// The request stream is precomputed from -seed: which spec each
// request carries, whether it repeats an earlier body (a cache hit the
// server must absorb) or perturbs the spec's seed into a fresh
// execution, and every open-loop interarrival gap. Same flags, same
// stream — byte for byte.
//
// With -json the report is one JSON object on stdout, carrying the
// same toolchain stamps as misbench's records, so scripts/bench.sh
// appends service-level rows to the same trajectory files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"beepmis/internal/load"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "misload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("misload", flag.ContinueOnError)
	var (
		url       = fs.String("url", "http://127.0.0.1:8080", "misd base URL")
		mode      = fs.String("mode", load.ModeClosed, "load mode: closed (fixed concurrency) or open (fixed arrival rate)")
		conc      = fs.Int("c", 4, "closed-loop worker count")
		n         = fs.Int("n", 64, "total requests")
		rate      = fs.Float64("rate", 50, "open-loop offered arrival rate (requests/second)")
		arrival   = fs.String("arrival", load.ArrivalPoisson, "open-loop interarrival process: poisson or uniform")
		specs     = fs.String("spec", "scenarios/quickstart.json", "comma-separated base scenario files for the workload mix")
		hit       = fs.Float64("hit", 0, "fraction of requests that repeat an earlier body (cache-hit mix)")
		subs      = fs.Int("subs", 0, "SSE subscribers attached per sampled job")
		subJobs   = fs.Int("sub-jobs", 1, "fresh jobs that receive the -subs fan-out")
		seed      = fs.Uint64("seed", 1, "schedule seed (mix, perturbed spec seeds, arrival gaps)")
		poll      = fs.Duration("poll", 2*time.Millisecond, "result poll interval")
		timeout   = fs.Duration("timeout", 60*time.Second, "per-request submit→result budget")
		inflight  = fs.Int("max-inflight", 512, "open-loop cap on outstanding requests (beyond it arrivals are shed client-side)")
		waitReady = fs.Duration("wait-ready", 0, "poll /v1/readyz for up to this long before starting (0 = don't wait)")
		jsonOut   = fs.Bool("json", false, "emit the report as one JSON object on stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("-n must be ≥ 1 (got %d)", *n)
	}

	var docs [][]byte
	for _, path := range strings.Split(*specs, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		docs = append(docs, b)
	}

	if *waitReady > 0 {
		if err := awaitReady(ctx, *url, *waitReady); err != nil {
			return err
		}
	}

	rep, err := load.Run(ctx, load.Config{
		BaseURL:        strings.TrimRight(*url, "/"),
		Mode:           *mode,
		Concurrency:    *conc,
		Requests:       *n,
		Rate:           *rate,
		Arrival:        *arrival,
		Specs:          docs,
		HitFraction:    *hit,
		Subscribers:    *subs,
		SubscribeJobs:  *subJobs,
		Seed:           *seed,
		PollInterval:   *poll,
		RequestTimeout: *timeout,
		MaxInFlight:    *inflight,
	})
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		rep.WriteText(stdout)
	}
	return nil
}

// awaitReady polls /v1/readyz until it serves 200 or the budget runs
// out — the boot-ordering glue that lets scripts start misd and
// misload back to back without a curl loop in between.
func awaitReady(ctx context.Context, baseURL string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service at %s not ready within %s", baseURL, budget)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

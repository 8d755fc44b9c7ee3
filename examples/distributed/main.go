// Distributed: the beeping MIS protocol as real networked processes —
// a TCP coordinator (standing in for the shared radio medium) plus two
// node clients, one hosting the even vertices and one the odd, each over
// its own connection, all inside this process for a self-contained demo.
// The same binary roles are available as separate OS processes via
// cmd/misnode.
//
// The run is then replayed in the in-memory simulator from the same seed
// to demonstrate the repository's reproducibility contract: the network
// execution and the simulation are bit-for-bit identical.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"sync"

	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
	"beepmis/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const seed = 99
	g := graph.GNP(40, 0.2, rng.New(1))
	fmt.Printf("network: %d vertices, %d edges\n", g.N(), g.M())

	coord, err := transport.NewCoordinator(g, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = coord.Close() }()
	fmt.Printf("coordinator listening on %s\n", coord.Addr())

	factory, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		return err
	}
	master := rng.New(seed)

	var wg sync.WaitGroup
	nodeErrs := make([]error, 2)
	for parity := range 2 {
		var vertices []int
		for v := parity; v < g.N(); v += 2 {
			vertices = append(vertices, v)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, nodeErrs[parity] = transport.RunNode(coord.Addr(), vertices, factory, master, transport.NodeOptions{})
		}()
	}
	coordRes, err := coord.Serve(transport.CoordinatorOptions{})
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	wg.Wait()
	for parity, err := range nodeErrs {
		if err != nil {
			return fmt.Errorf("node %d: %w", parity, err)
		}
	}
	if err := graph.VerifyMIS(g, coordRes.InMIS); err != nil {
		return fmt.Errorf("distributed MIS invalid: %w", err)
	}
	fmt.Printf("TCP run: %d rounds, MIS size %d, %d total beeps — verified ✓\n",
		coordRes.Rounds, len(graph.SetToList(coordRes.InMIS)), coordRes.TotalBeeps)

	// Replay in the simulator from the same seed.
	simRes, err := sim.Run(g, factory, rng.New(seed), sim.Options{})
	if err != nil {
		return err
	}
	match := simRes.Rounds == coordRes.Rounds && simRes.TotalBeeps == coordRes.TotalBeeps
	for v := range simRes.InMIS {
		match = match && simRes.InMIS[v] == coordRes.InMIS[v]
	}
	fmt.Printf("simulator replay: %d rounds, %d total beeps — identical to the TCP run: %v\n",
		simRes.Rounds, simRes.TotalBeeps, match)
	if !match {
		return fmt.Errorf("network execution diverged from the simulator — reproducibility bug")
	}
	return nil
}

package sim

// shardPool fans per-round phase work out to a fixed set of persistent
// worker goroutines, each owning one contiguous chunk of the node-mask
// word range. The columnar round loop runs three shardable phases per
// round (eligible draws + beep tally, the two propagation exchanges,
// and the observe sweep); spawning goroutines per phase per round costs
// allocations and scheduler churn on every single round, so the pool is
// created once per run and fed over channels instead — a phase call
// allocates nothing.
//
// Determinism: every phase body writes only state its shard owns —
// per-node state (packed kernel arrays, per-node rng streams,
// destination words) of the nodes inside its word range, or, in the
// sparse push's scatter phase, a full-width buffer of the shard's own
// that only the following merge phase reads — and the ranges partition
// [0, words). Workers therefore never write shared state, and the
// result of a phase is bit-identical to one serial sweep for every
// shard count.
type shardPool struct {
	bounds []int // len workers+1; worker i owns words [bounds[i], bounds[i+1])
	fn     func(shard, lo, hi int)
	work   chan int      // shard indices; closed by close()
	done   chan struct{} // one token per completed shard
}

// newShardPool partitions `words` destination words into up to `shards`
// contiguous chunks and starts one persistent goroutine per chunk
// beyond the first (chunk 0 always runs on the phase caller's
// goroutine). It returns nil when the partition degenerates to a
// single chunk — the caller then runs every phase inline, exactly like
// shards = 1.
func newShardPool(words, shards int) *shardPool {
	if shards > words {
		shards = words
	}
	if shards <= 1 {
		return nil
	}
	p := &shardPool{
		work: make(chan int, shards),
		done: make(chan struct{}, shards),
	}
	chunk := (words + shards - 1) / shards
	for lo := 0; lo < words; lo += chunk {
		p.bounds = append(p.bounds, lo)
	}
	p.bounds = append(p.bounds, words)
	for i := 1; i < len(p.bounds)-1; i++ {
		go p.worker()
	}
	return p
}

// worker drains shard indices until the pool closes. The work-channel
// receive orders each read of p.fn after run's write of it, and the
// done-channel send orders it before run's return — so run may swap fn
// between calls without a race.
//
//misvet:noalloc
func (p *shardPool) worker() {
	for shard := range p.work {
		p.fn(shard, p.bounds[shard], p.bounds[shard+1])
		p.done <- struct{}{}
	}
}

// run executes fn once per shard over the pool's fixed partition and
// returns when every shard has finished. Shard 0 runs on the calling
// goroutine. fn is typically a method value created once at engine
// setup, so a steady-state call performs no allocations.
//
//misvet:noalloc
func (p *shardPool) run(fn func(shard, lo, hi int)) {
	p.fn = fn
	n := len(p.bounds) - 1
	for shard := 1; shard < n; shard++ {
		p.work <- shard
	}
	fn(0, p.bounds[0], p.bounds[1])
	for shard := 1; shard < n; shard++ {
		<-p.done
	}
}

// shards returns the number of chunks in the pool's partition.
func (p *shardPool) shards() int { return len(p.bounds) - 1 }

// close releases the pool's workers. The pool must be idle.
func (p *shardPool) close() { close(p.work) }

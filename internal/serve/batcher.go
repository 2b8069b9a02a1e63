package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"selnet/internal/obs"
	"selnet/internal/tensor"
)

// ErrBatcherClosed is returned by Submit after Close has begun.
var ErrBatcherClosed = errors.New("serve: batcher closed")

// BatchIntoEstimator is the allocation-free batch surface of the plan
// path (selnet.Net and selnet.Partitioned implement it). Lanes use it
// with per-lane reusable buffers, so a fused batch costs zero heap
// allocations end to end.
type BatchIntoEstimator interface {
	EstimateBatchInto(out []float64, x *tensor.Dense, ts []float64)
}

// BatcherConfig tunes the request coalescer.
type BatcherConfig struct {
	// MaxBatch is the largest number of requests fused into one
	// EstimateBatch call (default 32).
	MaxBatch int
	// Lanes is the number of independent coalescing lanes. Each lane owns
	// its own queue, gather goroutine, and reusable inference buffers, so
	// up to Lanes batches run concurrently with no shared contention
	// point — the single batcher goroutine stops being a throughput
	// ceiling on multicore. Default: GOMAXPROCS.
	Lanes int
	// QueueDepth is each lane's request-channel buffer (default
	// 4*MaxBatch).
	QueueDepth int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Lanes <= 0 {
		c.Lanes = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	return c
}

// LaneStats is one lane's share of the coalescing counters.
type LaneStats struct {
	// Batches counts EstimateBatch calls this lane issued.
	Batches uint64 `json:"batches"`
	// MaxFused is the largest batch this lane fused.
	MaxFused uint64 `json:"max_fused"`
}

// BatcherStats is a snapshot of coalescing effectiveness counters,
// aggregated over every lane.
type BatcherStats struct {
	// Requests counts single-query requests submitted.
	Requests uint64 `json:"requests"`
	// Batches counts EstimateBatch calls issued.
	Batches uint64 `json:"batches"`
	// MaxFused is the largest batch fused so far.
	MaxFused uint64 `json:"max_fused"`
	// Lanes holds the per-lane breakdown.
	Lanes []LaneStats `json:"lanes,omitempty"`
}

// Batcher coalesces concurrent single-query estimate requests for one
// model into batched EstimateBatch calls — the hot path of serving,
// since one compiled-plan pass over a B-row tensor is far cheaper than
// B passes over 1-row tensors. The batcher is sharded into lanes:
// Submit round-robins requests across per-lane queues, and each lane's
// goroutine batches greedily. It takes the first queued request, adds
// whatever else is already queued (up to MaxBatch) without blocking,
// and runs the batch at once. Requests that arrive while a batch runs
// form the next one, so batches grow with load and a lone request never
// waits for company. Each lane owns reusable input/output buffers sized
// to MaxBatch, so with a BatchIntoEstimator the fused pass allocates
// nothing.
type Batcher struct {
	est  Estimator
	into BatchIntoEstimator // non-nil when est supports the in-place path
	cfg  BatcherConfig
	dim  int

	lanes []*lane
	next  atomic.Uint64  // round-robin lane cursor
	wg    sync.WaitGroup // lane workers

	mu       sync.Mutex // guards closed + inflight Add
	closed   bool
	inflight sync.WaitGroup // submitters inside the reqs channel handoff

	requests atomic.Uint64
}

// lane is one coalescing shard: a queue, a gather goroutine, and the
// goroutine's private inference buffers.
type lane struct {
	reqs chan batchReq

	batches  atomic.Uint64
	maxFused atomic.Uint64
	sizes    *obs.Histogram // fused-batch sizes, exported via /metrics

	// Gather/run state owned by the lane goroutine: the reused batch
	// slice, the MaxBatch x dim input tensor with per-size row views, and
	// the threshold/output slices.
	buf   []batchReq
	x     *tensor.Dense
	views []*tensor.Dense // views[n] = first n rows of x (1-indexed)
	ts    []float64
	out   []float64
}

type batchReq struct {
	x   []float64
	t   float64
	enq time.Time // Submit handoff time
	deq time.Time // lane worker pickup time
	out chan batchRes
}

type batchRes struct {
	v      float64
	err    error
	timing BatchTiming
}

// BatchTiming attributes one submitted request's time inside the
// coalescer, measured by the lane worker itself so the serving layer
// can trace a request without instrumenting lane internals.
type BatchTiming struct {
	// Queue is the wait between Submit's channel handoff and the lane
	// worker dequeuing the request.
	Queue time.Duration
	// Fuse is the gather time: from this request's dequeue until the
	// fused batch launches (already-queued lane-mates drained, rows
	// copied in).
	Fuse time.Duration
	// Execute is the fused inference call (shared by the whole batch).
	Execute time.Duration
	// BatchSize is how many requests shared the fused batch.
	BatchSize int
}

// BatchSizeBuckets are the bucket bounds of the per-lane fused-batch-size
// histograms.
func BatchSizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128}
}

// NewBatcher starts the coalescer's lane pool for est.
func NewBatcher(est Estimator, cfg BatcherConfig) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{est: est, cfg: cfg, dim: est.Dim()}
	b.into, _ = est.(BatchIntoEstimator)
	dim := b.dim
	for i := 0; i < cfg.Lanes; i++ {
		l := &lane{
			reqs:  make(chan batchReq, cfg.QueueDepth),
			sizes: obs.NewHistogram(BatchSizeBuckets()...),
			buf:   make([]batchReq, 0, cfg.MaxBatch),
			x:     tensor.New(cfg.MaxBatch, dim),
			views: make([]*tensor.Dense, cfg.MaxBatch+1),
			ts:    make([]float64, cfg.MaxBatch),
			out:   make([]float64, cfg.MaxBatch),
		}
		for n := 1; n <= cfg.MaxBatch; n++ {
			l.views[n] = l.x.RowsView(n)
		}
		b.lanes = append(b.lanes, l)
	}
	b.wg.Add(cfg.Lanes)
	for _, l := range b.lanes {
		go b.worker(l)
	}
	return b
}

// Submit queues one (query, threshold) estimate and blocks until its
// batch runs or ctx is done. It is safe for concurrent use.
func (b *Batcher) Submit(ctx context.Context, x []float64, t float64) (float64, error) {
	v, _, err := b.SubmitTimed(ctx, x, t)
	return v, err
}

// SubmitTimed is Submit plus the request's coalescer timing breakdown
// (zero on error paths that never reached a lane worker).
func (b *Batcher) SubmitTimed(ctx context.Context, x []float64, t float64) (float64, BatchTiming, error) {
	if len(x) != b.dim {
		// The lanes copy into fixed dim-wide buffers, so a mismatched
		// query must be rejected here rather than silently truncated or
		// padded with a previous batch's values.
		return 0, BatchTiming{}, fmt.Errorf("serve: query has dim %d, model expects %d", len(x), b.dim)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, BatchTiming{}, ErrBatcherClosed
	}
	b.inflight.Add(1)
	b.mu.Unlock()
	defer b.inflight.Done()

	b.requests.Add(1)
	l := b.lanes[b.next.Add(1)%uint64(len(b.lanes))]
	out, _ := replyChans.Get().(chan batchRes)
	if out == nil {
		out = make(chan batchRes, 1)
	}
	r := batchReq{x: x, t: t, enq: time.Now(), out: out}
	select {
	case l.reqs <- r:
	case <-ctx.Done():
		replyChans.Put(out) // never handed to a lane
		return 0, BatchTiming{}, ctx.Err()
	}
	// The lane worker always answers (even on panic), so waiting only on
	// ctx alongside the reply never leaks the request.
	select {
	case res := <-out:
		replyChans.Put(out)
		return res.v, res.timing, res.err
	case <-ctx.Done():
		// The lane still owns out and will write to it later, so it is
		// abandoned rather than recycled: a late reply must never land
		// in a channel another request is waiting on.
		return 0, BatchTiming{}, ctx.Err()
	}
}

// replyChans recycles the one-slot reply channels of answered requests,
// so a submit allocates nothing in steady state. A channel goes back
// only once empty: after its reply was received, or if it never left
// the submitter.
var replyChans sync.Pool

// Close stops accepting submissions, waits for queued requests to be
// answered, and stops the lane workers. It is idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.inflight.Wait() // no submitter is mid-handoff once this returns
	for _, l := range b.lanes {
		close(l.reqs) // workers drain their buffers, then exit
	}
	b.wg.Wait()
}

// SizeHistogram snapshots the distribution of fused batch sizes,
// merged across lanes.
func (b *Batcher) SizeHistogram() obs.HistogramSnapshot {
	s := b.lanes[0].sizes.Snapshot()
	for _, l := range b.lanes[1:] {
		ls := l.sizes.Snapshot()
		for i := range s.Counts {
			s.Counts[i] += ls.Counts[i]
		}
		s.Sum += ls.Sum
		s.Count += ls.Count
	}
	return s
}

// LaneSizeHistograms snapshots each lane's fused-batch-size histogram.
func (b *Batcher) LaneSizeHistograms() []obs.HistogramSnapshot {
	out := make([]obs.HistogramSnapshot, len(b.lanes))
	for i, l := range b.lanes {
		out[i] = l.sizes.Snapshot()
	}
	return out
}

// Stats returns a snapshot of the coalescing counters.
func (b *Batcher) Stats() BatcherStats {
	s := BatcherStats{
		Requests: b.requests.Load(),
		Lanes:    make([]LaneStats, len(b.lanes)),
	}
	for i, l := range b.lanes {
		ls := LaneStats{
			Batches:  l.batches.Load(),
			MaxFused: l.maxFused.Load(),
		}
		s.Lanes[i] = ls
		s.Batches += ls.Batches
		if ls.MaxFused > s.MaxFused {
			s.MaxFused = ls.MaxFused
		}
	}
	return s
}

// worker runs one lane's batches until its channel closes. Each batch
// is the first queued request plus whatever else is already queued, up
// to MaxBatch; nothing waits for requests that have not arrived.
func (b *Batcher) worker(l *lane) {
	defer b.wg.Done()
	for first := range l.reqs {
		first.deq = time.Now()
		batch := append(l.buf[:0], first)
	drain:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case r, ok := <-l.reqs:
				if !ok {
					break drain
				}
				r.deq = time.Now()
				batch = append(batch, r)
			default:
				break drain
			}
		}
		b.run(l, batch)
	}
}

// run executes one fused EstimateBatch call over the lane's buffers and
// distributes results.
func (b *Batcher) run(l *lane, batch []batchReq) {
	answered := 0
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("serve: batched inference panicked: %v", p)
			// Only requests not yet answered get the error: an answered
			// submitter may already have recycled its reply channel.
			for _, r := range batch[answered:] {
				// Buffered reply channels: never blocks, even if the
				// submitter already gave up on ctx.
				r.out <- batchRes{err: err}
			}
		}
	}()
	n := len(batch)
	l.batches.Add(1)
	l.sizes.Observe(float64(n))
	if cur := l.maxFused.Load(); uint64(n) > cur {
		l.maxFused.CompareAndSwap(cur, uint64(n)) // single writer per lane
	}
	x := l.views[n]
	ts := l.ts[:n]
	for i, r := range batch {
		copy(x.Row(i), r.x)
		ts[i] = r.t
	}
	out := l.out[:n]
	execStart := time.Now()
	if b.into != nil {
		b.into.EstimateBatchInto(out, x, ts)
	} else {
		out = b.est.EstimateBatch(x, ts)
	}
	exec := time.Since(execStart)
	for i, r := range batch {
		r.out <- batchRes{v: out[i], timing: BatchTiming{
			Queue:     r.deq.Sub(r.enq),
			Fuse:      execStart.Sub(r.deq),
			Execute:   exec,
			BatchSize: n,
		}}
		answered = i + 1
	}
}

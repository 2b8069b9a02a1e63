package serve

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selnet/internal/tensor"
)

// fakeEst is a deterministic, instrumented Estimator: the estimate is
// scale*(sum(x)+t), each EstimateBatch call is counted, and an optional
// per-call delay models real inference cost. With release set, every
// call sends its row count on entered and then blocks until release.
type fakeEst struct {
	dim   int
	scale float64
	delay time.Duration
	// short, when > 0, truncates each call's results to that many, so
	// the lane's result distribution panics partway through a batch.
	short int

	entered chan int
	release chan struct{}

	calls   atomic.Uint64
	rows    atomic.Uint64
	maxRows atomic.Uint64
}

func newFakeEst(dim int) *fakeEst { return &fakeEst{dim: dim, scale: 1} }

func newGatedEst(dim int) *fakeEst {
	f := newFakeEst(dim)
	f.entered = make(chan int)
	f.release = make(chan struct{})
	return f
}

func (f *fakeEst) Estimate(x []float64, t float64) float64 {
	return f.EstimateBatch(tensor.RowVector(x), []float64{t})[0]
}

func (f *fakeEst) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	f.calls.Add(1)
	f.rows.Add(uint64(len(ts)))
	for {
		cur := f.maxRows.Load()
		if uint64(len(ts)) <= cur || f.maxRows.CompareAndSwap(cur, uint64(len(ts))) {
			break
		}
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.release != nil {
		f.entered <- len(ts)
		<-f.release
	}
	out := make([]float64, len(ts))
	for i := range out {
		var s float64
		for _, v := range x.Row(i) {
			s += v
		}
		out[i] = f.scale * (s + ts[i])
	}
	if f.short > 0 {
		out = out[:f.short]
	}
	return out
}

func (f *fakeEst) Dim() int      { return f.dim }
func (f *fakeEst) TMax() float64 { return 1 }
func (f *fakeEst) Name() string  { return "fake" }

func fakeWant(scale float64, x []float64, t float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return scale * (s + t)
}

func TestBatcherCoalescesConcurrentRequests(t *testing.T) {
	est := newFakeEst(3)
	est.delay = 2 * time.Millisecond // give submitters time to pile up
	b := NewBatcher(est, BatcherConfig{MaxBatch: 64, Lanes: 1})
	defer b.Close()

	const n = 48
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := []float64{float64(i), 1, 2}
			got, err := b.Submit(context.Background(), x, 0.5)
			if err != nil {
				errs <- err
				return
			}
			if want := fakeWant(1, x, 0.5); math.Abs(got-want) > 1e-12 {
				t.Errorf("request %d: got %v, want %v", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("submit: %v", err)
	}
	st := b.Stats()
	if st.Requests != n {
		t.Fatalf("stats requests = %d, want %d", st.Requests, n)
	}
	if st.Batches >= n {
		t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, n)
	}
	if st.MaxFused < 2 {
		t.Fatalf("max fused batch %d, want >= 2", st.MaxFused)
	}
}

func TestBatcherRespectsMaxBatch(t *testing.T) {
	est := newFakeEst(2)
	est.delay = time.Millisecond
	b := NewBatcher(est, BatcherConfig{MaxBatch: 4, Lanes: 2})
	defer b.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), []float64{float64(i), 0}, 0.1); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if got := est.maxRows.Load(); got > 4 {
		t.Fatalf("largest EstimateBatch had %d rows, MaxBatch is 4", got)
	}
	if got := est.rows.Load(); got != 32 {
		t.Fatalf("estimator saw %d rows, want 32", got)
	}
}

// waitQueued blocks until lane l holds n queued requests.
func waitQueued(t *testing.T, l *lane, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(l.reqs) < n {
		if time.Now().After(deadline) {
			t.Fatalf("lane queue holds %d requests, want %d", len(l.reqs), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// submitAsync submits x and delivers the result on the returned channel.
func submitAsync(ctx context.Context, b *Batcher, x []float64, t float64) <-chan batchRes {
	done := make(chan batchRes, 1)
	go func() {
		v, bt, err := b.SubmitTimed(ctx, x, t)
		done <- batchRes{v: v, err: err, timing: bt}
	}()
	return done
}

// Requests that arrive while a batch executes form the next batch, in
// full and without waiting for more.
func TestBatcherNextBatchIsWhatQueuedDuringRun(t *testing.T) {
	est := newGatedEst(1)
	b := NewBatcher(est, BatcherConfig{MaxBatch: 16, Lanes: 1})
	defer b.Close()
	ctx := context.Background()

	first := submitAsync(ctx, b, []float64{100}, 0)
	if rows := <-est.entered; rows != 1 {
		t.Fatalf("first batch has %d rows, want 1", rows)
	}
	const k = 5
	var rest []<-chan batchRes
	for i := 0; i < k; i++ {
		rest = append(rest, submitAsync(ctx, b, []float64{float64(i)}, 0))
	}
	waitQueued(t, b.lanes[0], k)
	est.release <- struct{}{}
	if rows := <-est.entered; rows != k {
		t.Fatalf("batch after the running one has %d rows, want %d", rows, k)
	}
	est.release <- struct{}{}

	if res := <-first; res.err != nil || res.v != 100 || res.timing.BatchSize != 1 {
		t.Fatalf("first request: %+v, want 100 from a batch of 1", res)
	}
	for i, c := range rest {
		res := <-c
		if res.err != nil || res.v != float64(i) || res.timing.BatchSize != k {
			t.Fatalf("request %d: %+v, want %d from a batch of %d", i, res, i, k)
		}
	}
	if st := b.Stats(); st.Batches != 2 || st.MaxFused != k {
		t.Fatalf("stats %+v, want 2 batches, max fused %d", st, k)
	}
}

// A submitter that gives up after the handoff abandons its reply
// channel: the lane's late answer must never reach a later request.
func TestBatcherCancelAfterHandoffAnswersNoOneElse(t *testing.T) {
	est := newGatedEst(1)
	b := NewBatcher(est, BatcherConfig{MaxBatch: 16, Lanes: 1})
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := submitAsync(ctx, b, []float64{-1}, 0)
	<-est.entered
	cancel()
	if res := <-gaveUp; res.err != context.Canceled {
		t.Fatalf("cancelled submit: %+v, want context.Canceled", res)
	}
	next := submitAsync(context.Background(), b, []float64{7}, 0)
	waitQueued(t, b.lanes[0], 1)
	est.release <- struct{}{} // the lane answers the abandoned request
	<-est.entered
	est.release <- struct{}{}
	if res := <-next; res.err != nil || res.v != 7 {
		t.Fatalf("next submit: %+v, want 7", res)
	}
}

// Many submitters cancel at random points around the handoff while
// others check their own answers; run with -race.
func TestBatcherCancelHammer(t *testing.T) {
	est := newFakeEst(1)
	est.delay = 50 * time.Microsecond
	b := NewBatcher(est, BatcherConfig{MaxBatch: 8, Lanes: 2})
	defer b.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := []float64{float64(g*1000 + i)}
				if (g+i)%2 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%4)*20*time.Microsecond)
					v, err := b.Submit(ctx, x, 0)
					cancel()
					if err == nil && v != x[0] {
						t.Errorf("cancellable submit %v: got %v", x[0], v)
						return
					}
					continue
				}
				v, err := b.Submit(context.Background(), x, 0)
				if err != nil || v != x[0] {
					t.Errorf("submit %v: got %v, %v", x[0], v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// When result distribution panics partway through a batch, the requests
// already answered keep their answers and only the rest get the error,
// so no recycled reply channel receives a second reply.
func TestBatcherPanicAnswersOnlyUnanswered(t *testing.T) {
	est := newGatedEst(1)
	est.short = 1
	b := NewBatcher(est, BatcherConfig{MaxBatch: 16, Lanes: 1})
	defer b.Close()
	ctx := context.Background()

	head := submitAsync(ctx, b, []float64{1}, 0)
	<-est.entered
	a := submitAsync(ctx, b, []float64{2}, 0)
	waitQueued(t, b.lanes[0], 1)
	c := submitAsync(ctx, b, []float64{3}, 0)
	waitQueued(t, b.lanes[0], 2)
	est.release <- struct{}{}
	<-est.entered
	est.release <- struct{}{}
	if res := <-head; res.err != nil || res.v != 1 {
		t.Fatalf("lone request: %+v, want 1", res)
	}
	if res := <-a; res.err != nil || res.v != 2 {
		t.Fatalf("first row of the short batch: %+v, want 2", res)
	}
	if res := <-c; res.err == nil {
		t.Fatalf("second row of the short batch: %+v, want the panic error", res)
	}
	// Every answered submitter recycled its channel; none may hold a
	// second reply.
	for {
		ch, _ := replyChans.Get().(chan batchRes)
		if ch == nil {
			break
		}
		if len(ch) != 0 {
			t.Fatalf("a recycled reply channel holds a stale reply: %+v", <-ch)
		}
	}
}

func TestBatcherCloseDrainsAndRejects(t *testing.T) {
	est := newFakeEst(1)
	est.delay = time.Millisecond
	b := NewBatcher(est, BatcherConfig{MaxBatch: 8, Lanes: 1})

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every request submitted before Close must be answered, not
			// dropped.
			if _, err := b.Submit(context.Background(), []float64{float64(i)}, 0.1); err != nil {
				t.Errorf("pre-close submit: %v", err)
			}
		}(i)
	}
	wg.Wait()
	b.Close()
	b.Close() // idempotent
	if _, err := b.Submit(context.Background(), []float64{1}, 0.1); err != ErrBatcherClosed {
		t.Fatalf("post-close submit error = %v, want ErrBatcherClosed", err)
	}
	if got := est.rows.Load(); got != 16 {
		t.Fatalf("estimator saw %d rows, want 16", got)
	}
}

func TestBatcherContextCancellation(t *testing.T) {
	est := newFakeEst(1)
	b := NewBatcher(est, BatcherConfig{MaxBatch: 4, Lanes: 1})
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(ctx, []float64{1}, 0.1); err != context.Canceled {
		t.Fatalf("submit error = %v, want context.Canceled", err)
	}
}

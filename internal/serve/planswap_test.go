package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"selnet/internal/selnet"
)

// Hot-swapping a plan-backed model while requests are in flight must
// never corrupt results: the displaced generation's plans are dropped
// (and recompile lazily for stragglers holding the old handle), the new
// generation compiles its own. Parameters are never mutated here, so
// every response must be finite and equal across generations of the
// same weights. Run with -race in CI.
func TestConcurrentSubmitDuringPlanHotSwap(t *testing.T) {
	cfg := selnet.DefaultConfig()
	cfg.TMax = 1
	base := selnet.NewNet(rand.New(rand.NewSource(1)), 8, cfg)
	want := base.Estimate([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}, 0.5)

	reg := NewRegistry(func(est Estimator) *Batcher {
		return NewBatcher(est, BatcherConfig{MaxBatch: 8, Lanes: 2})
	})
	if _, err := reg.Publish("m", base, "seed"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Clones share no mutable state but produce identical
			// estimates, so correctness is observable across swaps.
			if _, err := reg.Publish("m", base.Clone(), "swap"); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	q := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	var clients sync.WaitGroup
	for g := 0; g < 4; g++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			ctx := context.Background()
			for i := 0; i < 300; i++ {
				m, ok := reg.Get("m")
				if !ok {
					t.Error("model vanished")
					return
				}
				v, err := m.Batcher().Submit(ctx, q, 0.5)
				if errors.Is(err, ErrBatcherClosed) {
					// Raced the swap: fall back to direct inference on the
					// handle, as the HTTP server does.
					v, err = m.Est.Estimate(q, 0.5), nil
				}
				if err != nil {
					t.Error(err)
					return
				}
				if v != want {
					t.Errorf("call %d: estimate %v, want %v", i, v, want)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	swapper.Wait()
	reg.Close()
}

// Lanes must spread work: with many concurrent submitters every lane
// should see at least one batch.
func TestBatcherLanesAllServe(t *testing.T) {
	est := newFakeEst(4)
	b := NewBatcher(est, BatcherConfig{MaxBatch: 4, Lanes: 3})
	defer b.Close()
	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := b.Submit(context.Background(), []float64{1, 2, 3, 4}, 0.5); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := b.Stats()
	if st.Requests != 450 {
		t.Fatalf("requests = %d, want 450", st.Requests)
	}
	if len(st.Lanes) != 3 {
		t.Fatalf("lanes = %d, want 3", len(st.Lanes))
	}
	var batches uint64
	for lane, ls := range st.Lanes {
		if ls.Batches == 0 {
			t.Fatalf("lane %d served no batches", lane)
		}
		batches += ls.Batches
	}
	if batches != st.Batches {
		t.Fatalf("aggregate batches %d != lane sum %d", st.Batches, batches)
	}
}

// A lone request runs at once, even with more lanes than clients: its
// batch holds only itself and launches without waiting for company.
func TestLoneSubmitRunsAtOnce(t *testing.T) {
	est := newFakeEst(2)
	b := NewBatcher(est, BatcherConfig{MaxBatch: 8, Lanes: 8})
	defer b.Close()

	fastest := time.Hour
	for i := 0; i < 16; i++ {
		_, bt, err := b.SubmitTimed(context.Background(), []float64{1, float64(i)}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if bt.BatchSize != 1 {
			t.Fatalf("lone request %d shared a batch of %d", i, bt.BatchSize)
		}
		fastest = min(fastest, bt.Fuse)
	}
	// Scheduling noise may stretch one gather, but a lane that waited
	// for company would stretch every one.
	if fastest > time.Millisecond {
		t.Fatalf("fastest lone gather took %v, want no fuse wait", fastest)
	}
	if st := b.Stats(); st.Batches != 16 || st.MaxFused != 1 {
		t.Fatalf("stats %+v, want 16 batches of 1", st)
	}
}

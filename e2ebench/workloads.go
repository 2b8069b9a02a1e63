package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"selnet/internal/vecdata"
)

// Wire types of the daemon's estimate and update routes.
type estimateReq struct {
	Model string    `json:"model"`
	Query []float64 `json:"query"`
	T     float64   `json:"t"`
}

type estimateResp struct {
	Estimate float64 `json:"estimate"`
}

type batchReq struct {
	Model   string      `json:"model"`
	Queries [][]float64 `json:"queries"`
	Ts      []float64   `json:"ts"`
}

type batchResp struct {
	Estimates []float64 `json:"estimates"`
}

type updateReq struct {
	Insert [][]float64 `json:"insert"`
}

type updateResp struct {
	Seq uint64 `json:"seq"`
}

const (
	routeEstimate = "/v1/estimate"
	routeBatch    = "/v1/estimate/batch"
	routeUpdate   = "/v1/models/{name}/update"

	// batchSize is the number of queries per batch-kinds request.
	batchSize = 64
	// batchBlocks distinct 64-query blocks make up the batch-kinds pool.
	batchBlocks = 64

	// mixed-rw rates: both are sustained by the daemon with no growing
	// backlog on 2 cores, so latency reflects service, not overload.
	readRate   = 400 // estimates per second
	writeRate  = 5   // insert batches per second
	writeBatch = 16  // vectors per insert batch
	// readPool distinct queries, four times the daemon's default
	// 4096-entry cache, are drawn Zipf-skewed (exponent zipfS).
	readPool = 16384
	zipfS    = 1.7

	// Visibility poll intervals for pending updates: the probe's writes
	// apply in tens of milliseconds, mixed-rw's wait behind retrains of
	// hundreds, so it polls less often for the same resolution.
	probePoll = 2 * time.Millisecond
	mixedPoll = 10 * time.Millisecond
	// visibleTimeout bounds the wait for an acknowledged update to apply.
	visibleTimeout = 60 * time.Second
	// probeWrites sequential updates measure the write path after the
	// read window on workloads whose traffic is read-only.
	probeWrites = 60
	// lateBound is the generator lateness p99 past which an open-loop
	// run is invalid: requests were not sent on schedule.
	lateBound = 20.0 // ms
)

// window is one timed stretch of a workload's traffic.
type window struct {
	phase  string
	traced bool
	start  time.Time
	end    time.Time
	// report marks the window whose updates are measured: it stays open
	// until each has become visible. Other windows leave theirs in
	// flight, so the next window finds the write path busy, as it is in
	// steady state.
	report bool

	mu        sync.Mutex
	reads     []read    // answered estimate requests
	calls     []call    // client spans (traced windows)
	late      []float64 // open-loop sending lateness, ms
	writes    []*writeRec
	spans     spanStore
	sincePoll int
}

func newWindow(phase string, traced bool, d time.Duration) *window {
	now := time.Now()
	return &window{phase: phase, traced: traced, start: now, end: now.Add(d), spans: spanStore{}}
}

func (w *window) open() bool { return time.Now().Before(w.end) }

// read records one estimate request's outcome.
func (w *window) read(b *bench, cl call, model string, latency time.Duration, queries int) {
	b.led.count(w.phase, cl)
	w.mu.Lock()
	defer w.mu.Unlock()
	if cl.ok() {
		w.reads = append(w.reads, read{done: cl.Start.Add(cl.RTT), model: model, ms: ms(latency), n: queries})
	}
	if w.traced {
		w.calls = append(w.calls, cl)
		w.sincePoll++
	}
}

// pollDue reports whether enough requests passed since the last trace
// poll that the daemon's span ring could start to wrap.
func (w *window) pollDue() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.traced && w.sincePoll >= traceRing/4
}

// pollTraces pulls the daemon's recent spans into the window's store.
func (w *window) pollTraces(c *conn) error {
	var tr tracesResponse
	if err := c.getJSON(fmt.Sprintf("/debug/traces?limit=%d", traceRing), &tr); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.spans.add(tr.Recent)
	w.sincePoll = 0
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// read is one answered estimate request.
type read struct {
	done  time.Time
	model string
	ms    float64 // latency (open loop: from the due time)
	n     int     // estimates answered, counting each query of a batch
}

// stretches is how many equal parts of the window the read figures are
// computed over; each figure is the median across the parts, so a burst
// of outside noise in one part does not move it.
const stretches = 5

// readFigures returns the read-latency median, the want-quantile and the
// throughput of w, each the median over its stretches, with the lowest
// quantile any stretch's sample size allowed. Within a stretch each
// latency figure is the mean over the models of that model's figure:
// requests to models of different cost form separate modes, and a
// quantile of the mixture would fall between them.
func (w *window) readFigures(want float64) (p50, tail, used, qps float64) {
	parts := make([][]read, stretches)
	d := w.end.Sub(w.start) / stretches
	for _, r := range w.reads {
		i := min(int(r.done.Sub(w.start)/d), stretches-1)
		parts[i] = append(parts[i], r)
	}
	var p50s, tails, rates []float64
	used = want
	prev := w.start
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		byModel := map[string][]float64{}
		answered, last := 0, prev
		for _, r := range part {
			byModel[r.model] = append(byModel[r.model], r.ms)
			answered += r.n
			if r.done.After(last) {
				last = r.done
			}
		}
		var mp50, mtail float64
		for _, lat := range byModel {
			v, u := tailQuantile(lat, want)
			mp50 += median(lat) / float64(len(byModel))
			mtail += v / float64(len(byModel))
			used = min(used, u)
		}
		p50s, tails = append(p50s, mp50), append(tails, mtail)
		rates = append(rates, float64(answered)/last.Sub(prev).Seconds())
		prev = last
	}
	return median(p50s), median(tails), used, median(rates)
}

// latencies returns every read latency of w in completion order.
func (w *window) latencies() []float64 {
	out := make([]float64, len(w.reads))
	for i, r := range w.reads {
		out[i] = r.ms
	}
	return out
}

// writeRec is one update batch's timeline.
type writeRec struct {
	seq     uint64
	sent    time.Time // the update POST went out
	acked   time.Time // 202 received
	visible time.Time // first poll showing the seq applied
}

// ---------------------------------------------------------------------
// point-c1: one client, one connection, single estimates, all distinct.

type pointTraffic struct {
	rng    *rand.Rand
	served []servedPoint
}

type servedPoint struct {
	q   query
	est float64
}

func (p *pointTraffic) drive(b *bench, w *window) error {
	c := b.conns[0]
	model := b.in.models[0]
	for w.open() {
		q := b.in.newQuery(p.rng)
		body, err := json.Marshal(estimateReq{Model: model, Query: q.x, T: q.t})
		if err != nil {
			return err
		}
		var resp estimateResp
		cl := c.post(routeEstimate, routeEstimate, body, &resp)
		w.read(b, cl, model, cl.RTT, 1)
		if cl.ok() {
			p.served = append(p.served, servedPoint{q, resp.Estimate})
		}
		if w.pollDue() {
			if err := w.pollTraces(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// check compares every served estimate with the saved model's in-process
// answer for the same query.
func (p *pointTraffic) check(b *bench) (checked, mismatched int) {
	est := b.in.ref[b.in.models[0]]
	for _, s := range p.served {
		if est.Estimate(s.q.x, s.q.t) != s.est {
			mismatched++
		}
	}
	return len(p.served), mismatched
}

// ---------------------------------------------------------------------
// batch-kinds: two clients, 64-query batches round-robin over four kinds.

type batchTraffic struct {
	bodies  map[string][][]byte    // model -> block -> encoded request
	refs    map[string][][]float64 // model -> block -> in-process answers
	checked atomic.Int64
	bad     atomic.Int64
}

func newBatchTraffic(b *bench) (*batchTraffic, error) {
	rng := b.in.rng(2)
	d := &batchTraffic{bodies: map[string][][]byte{}, refs: map[string][][]float64{}}
	blocks := make([][]query, batchBlocks)
	for i := range blocks {
		for j := 0; j < batchSize; j++ {
			blocks[i] = append(blocks[i], b.in.newQuery(rng))
		}
	}
	for _, m := range b.in.models {
		for _, blk := range blocks {
			req := batchReq{Model: m}
			for _, q := range blk {
				req.Queries = append(req.Queries, q.x)
				req.Ts = append(req.Ts, q.t)
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			d.bodies[m] = append(d.bodies[m], body)
			d.refs[m] = append(d.refs[m], b.in.refBatch(m, blk))
		}
	}
	return d, nil
}

func (d *batchTraffic) drive(b *bench, w *window) error {
	var wg sync.WaitGroup
	errs := make([]error, len(b.conns))
	for i, c := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.client(b, w, c, i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *batchTraffic) client(b *bench, w *window, c *conn, id int) error {
	models := b.in.models
	for j := id; w.open(); j++ {
		m := models[j%len(models)]
		blk := (j / len(models)) % batchBlocks
		var resp batchResp
		cl := c.post(routeBatch, routeBatch, d.bodies[m][blk], &resp)
		w.read(b, cl, m, cl.RTT, batchSize)
		if cl.ok() {
			d.checked.Add(1)
			if !equal(resp.Estimates, d.refs[m][blk]) {
				d.bad.Add(1)
			}
		}
		// One client polls for spans; the other keeps the load steady.
		if id == 0 && w.pollDue() {
			if err := w.pollTraces(c); err != nil {
				return err
			}
		}
	}
	return nil
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// mixed-rw: open loop over two connections. Connection 0 sends single
// estimates at readRate, Zipf-skewed over readPool queries; connection 1
// sends shifted insert batches at writeRate and polls /stats until each
// is visible.

type mixedTraffic struct {
	pool   []query
	bodies [][]byte
	zipf   *rand.Zipf
	wrng   *rand.Rand
	hot    [][]float64
	model  string // the updated model

	mu      sync.Mutex
	served  []servedRead
	gens    genDelta // selnet counters across hot-swaps (traced window)
	initGen uint64
	// safeUntil is the send time of the latest /stats poll that still
	// showed the initial generation: a read answered before it was
	// served by the saved model.
	safeUntil atomic.Int64
	swapped   atomic.Bool
}

type servedRead struct {
	idx  int
	est  float64
	done time.Time
}

func newMixedTraffic(b *bench) (*mixedTraffic, error) {
	rng := b.in.rng(3)
	d := &mixedTraffic{wrng: b.in.rng(4)}
	for i := 0; i < readPool; i++ {
		q := b.in.newQuery(rng)
		body, err := json.Marshal(estimateReq{Model: b.in.models[0], Query: q.x, T: q.t})
		if err != nil {
			return nil, err
		}
		d.pool = append(d.pool, q)
		d.bodies = append(d.bodies, body)
	}
	d.zipf = rand.NewZipf(b.in.rng(5), zipfS, 1, readPool-1)
	d.hot = b.in.hotSubset(b.in.rng(6))
	return d, nil
}

func (d *mixedTraffic) drive(b *bench, w *window) error {
	var wg sync.WaitGroup
	var rerr, werr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		rerr = d.reader(b, w)
	}()
	go func() {
		defer wg.Done()
		werr = d.writer(b, w)
	}()
	wg.Wait()
	if rerr != nil {
		return rerr
	}
	return werr
}

// reader sends estimates at readRate, each timed from its due time.
func (d *mixedTraffic) reader(b *bench, w *window) error {
	c := b.conns[0]
	schedule(w, time.Second/readRate, func(due time.Time) {
		i := int(d.zipf.Uint64())
		var resp estimateResp
		cl := c.post(routeEstimate, routeEstimate, d.bodies[i], &resp)
		done := cl.Start.Add(cl.RTT)
		w.read(b, cl, d.model, done.Sub(due), 1)
		if cl.ok() {
			d.mu.Lock()
			d.served = append(d.served, servedRead{idx: i, est: resp.Estimate, done: done})
			d.mu.Unlock()
		}
	})
	return nil
}

// schedule calls send once per interval from w.start until w.end,
// serially, as one connection does. A request that falls due while the
// previous one is still in flight goes out as soon as it returns, and
// send times it from due, so a stall also counts against the requests
// queued behind it. Lateness — how long after its due time and a free
// connection a request actually went out — is the generator's own delay
// and is recorded in w.late.
func schedule(w *window, interval time.Duration, send func(due time.Time)) {
	free := w.start
	for due := w.start; due.Before(w.end); due = due.Add(interval) {
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		late := ms(time.Since(ready))
		w.mu.Lock()
		w.late = append(w.late, late)
		w.mu.Unlock()
		send(due)
		free = time.Now()
	}
}

// writer sends insert batches on a fixed schedule and, while any is
// pending, polls /stats until its seq is applied; in traced windows it
// also pulls spans.
func (d *mixedTraffic) writer(b *bench, w *window) error {
	c := b.conns[1]
	interval := time.Second / writeRate
	due := w.start
	if w.phase == "warmup" {
		// The first second of warm-up is reads only, so the saved model
		// serves a second of reads for the correctness gate before the
		// first retrain replaces it.
		due = due.Add(time.Second)
	}
	var pending []*writeRec
	lastTrace := time.Now()
	for due.Before(w.end) || (w.report && len(pending) > 0) {
		if len(pending) > 0 && time.Since(pending[0].acked) > visibleTimeout {
			return fmt.Errorf("update seq %d not applied after %s", pending[0].seq, visibleTimeout)
		}
		now := time.Now()
		switch {
		case due.Before(w.end) && !now.Before(due):
			rec, err := d.write(b, w, c, due)
			due = due.Add(interval)
			if err != nil {
				return err
			}
			if rec != nil {
				pending = append(pending, rec)
			}
		case len(pending) > 0:
			var err error
			if pending, err = d.pollVisible(w, c, pending); err != nil {
				return err
			}
			time.Sleep(min(time.Until(due), mixedPoll))
		default:
			time.Sleep(min(time.Until(due), mixedPoll))
		}
		if w.traced && time.Since(lastTrace) > 100*time.Millisecond {
			if err := w.pollTraces(c); err != nil {
				return err
			}
			lastTrace = time.Now()
		}
	}
	return nil
}

func (d *mixedTraffic) write(b *bench, w *window, c *conn, due time.Time) (*writeRec, error) {
	req := updateReq{}
	for k := 0; k < writeBatch; k++ {
		req.Insert = append(req.Insert, b.in.shiftedVector(d.wrng, d.hot))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	sent := time.Now()
	var resp updateResp
	cl := c.post(routeUpdate, "/v1/models/"+b.in.models[0]+"/update", body, &resp)
	b.led.count(w.phase, cl)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.late = append(w.late, ms(sent.Sub(due)))
	if w.traced {
		w.calls = append(w.calls, cl)
	}
	if !cl.ok() {
		if cl.Status == 429 {
			b.queueFull.Add(1)
		}
		return nil, nil
	}
	rec := &writeRec{seq: resp.Seq, sent: sent, acked: cl.Start.Add(cl.RTT)}
	w.writes = append(w.writes, rec)
	return rec, nil
}

// pollVisible reads /stats once, stamps every pending update whose seq
// is applied, and tracks hot-swaps for the correctness gate and the
// per-generation counters.
func (d *mixedTraffic) pollVisible(w *window, c *conn, pending []*writeRec) ([]*writeRec, error) {
	sent := time.Now()
	var s statsSnap
	if err := c.getJSON("/stats", &s); err != nil {
		return pending, err
	}
	now := time.Now()
	if gen, cnt, ok := s.counters(d.model); ok {
		if gen == d.initGen && !d.swapped.Load() {
			d.safeUntil.Store(sent.UnixNano())
		} else {
			d.swapped.Store(true)
		}
		if w.traced {
			d.mu.Lock()
			d.gens.observe(gen, cnt)
			d.mu.Unlock()
		}
	}
	applied := s.Ingest[d.model].AppliedSeq
	kept := pending[:0]
	for _, r := range pending {
		if r.seq <= applied {
			r.visible = now
		} else {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// check compares every read answered before the first hot-swap with the
// saved model's in-process answer.
func (d *mixedTraffic) check(b *bench) (checked, mismatched int) {
	safe := time.Unix(0, d.safeUntil.Load())
	est := b.in.ref[b.in.models[0]]
	cache := map[int]float64{}
	for _, s := range d.served {
		if !s.done.Before(safe) {
			continue
		}
		want, ok := cache[s.idx]
		if !ok {
			q := d.pool[s.idx]
			want = est.Estimate(q.x, q.t)
			cache[s.idx] = want
		}
		checked++
		if want != s.est {
			mismatched++
		}
	}
	return checked, mismatched
}

// ---------------------------------------------------------------------
// Write probe: sequential updates drawn from the data's own distribution
// (which the delta_U check absorbs) after the read window, so read-only
// workloads also report the write path, idle.

func writeProbe(b *bench, w *window) error {
	c := b.conns[0]
	rng := b.in.rng(7)
	for i := 0; i < probeWrites; i++ {
		req := updateReq{}
		for k := 0; k < writeBatch; k++ {
			req.Insert = append(req.Insert, vecdata.SampleLike(rng, b.in.db, queryJitter))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var resp updateResp
		cl := c.post(routeUpdate, "/v1/models/"+b.in.models[0]+"/update", body, &resp)
		b.led.count(w.phase, cl)
		if w.traced {
			w.calls = append(w.calls, cl)
		}
		if !cl.ok() {
			if cl.Status == 429 {
				b.queueFull.Add(1)
			}
			continue
		}
		rec := &writeRec{seq: resp.Seq, sent: cl.Start, acked: cl.Start.Add(cl.RTT)}
		w.writes = append(w.writes, rec)
		for rec.visible.IsZero() {
			if time.Since(rec.acked) > visibleTimeout {
				return fmt.Errorf("update seq %d not applied after %s", rec.seq, visibleTimeout)
			}
			var s statsSnap
			if err := c.getJSON("/stats", &s); err != nil {
				return err
			}
			if s.Ingest[b.in.models[0]].AppliedSeq >= rec.seq {
				rec.visible = time.Now()
				break
			}
			time.Sleep(probePoll)
		}
	}
	if w.traced {
		return w.pollTraces(c)
	}
	return nil
}

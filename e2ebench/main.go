// Command e2ebench is the repository's end-to-end benchmark. It builds
// selnet's inputs from a seed, starts a real selestd on loopback, drives
// one workload against it from this single process (at most two
// connections), checks every answer against the saved models evaluated
// in process, and prints the end-to-end metrics (--trace 0) or the
// per-layer split (--trace 1). See README.md beside this file.
//
// Run it through run.sh, which builds both binaries from source:
//
//	bash e2ebench/run.sh --workload point-c1 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"selnet/internal/metrics"
)

const (
	// setupLaunches daemon starts are timed; the last one serves the run.
	setupLaunches = 5
	warmup        = 3 * time.Second
)

// endToEnd and perLayer are the metric names the final line carries,
// in the order BENCHMARK.json lists them.
var endToEnd = []string{
	"setup_s", "read_p50_ms", "read_qps", "write_visible_p50_ms", "write_visible_p99_ms",
	"qerror_p50", "qerror_p95", "server_rss_mb",
}

// kernels are the plan kernels a partitioned SelNet executes, as named
// in /stats and /metrics.
var kernels = []string{
	"addrow", "blocklinear", "concat", "matmul", "matmul+bias", "matmul+bias+relu",
	"norml2", "prefixsum", "pwl", "relu", "scale",
}

// estimatorKinds are the model names batch-kinds serves.
var estimatorKinds = []string{"selnet", "dnn", "umnn", "dln"}

func perLayer() []string {
	names := []string{
		"read_p99_ms", "write_ack_p50_ms", "client.rtt_us", "net.transport_us", "serve.decode_us", "serve.encode_us", "serve.unaccounted_us",
		"cache.lookup_us", "cache.hit_ratio", "cache.evictions",
		"batcher.queue_us", "batcher.fuse_us", "batcher.reqs_per_batch", "batcher.timeout_ratio",
		"infer.execute_us", "infer.plan_compiles", "infer.plan_miss_ratio",
	}
	for _, k := range kernels {
		names = append(names, "kernel."+metricPart(k)+".us_per_call", "kernel."+metricPart(k)+".calls")
	}
	for _, k := range estimatorKinds {
		names = append(names, "estimator."+k+".execute_us")
	}
	return append(names,
		"ingest.ack_us", "ingest.fsyncs_per_batch", "ingest.apply_to_visible_ms",
		"ingest.retrain_ratio", "ingest.batches_per_cycle", "ingest.queue_full",
		"loadgen.late_p99_ms", "trace.overhead_pct", "trace.joined_ratio", "failed_frac",
	)
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	selestd  string
}

func parseFlags(args []string) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload: point-c1, batch-kinds or mixed-rw")
	fs.Int64Var(&c.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&c.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
	fs.StringVar(&c.root, "root", ".", "repository checkout holding the run directory")
	fs.StringVar(&c.selestd, "selestd", "", "selestd binary built from the checkout")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.trace = trace == 1
	switch {
	case specs[c.workload] == nil:
		return c, fmt.Errorf("unknown -workload %q", c.workload)
	case c.seconds < 1:
		return c, fmt.Errorf("-seconds must be >= 1")
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("-trace must be 0 or 1")
	case c.selestd == "":
		return c, fmt.Errorf("-selestd is required")
	}
	return c, nil
}

// traffic generates one workload's requests.
type traffic interface {
	drive(b *bench, w *window) error
}

// spec describes one workload.
type spec struct {
	models     []string // fitted and served; models[0] takes updates
	conns      int
	newTraffic func(b *bench) (traffic, error)
	readRoute  string
	openLoop   bool     // writes ride in the window instead of a probe after it
	durable    bool     // journal updates to disk (-journal-dir)
	flags      []string // extra selestd flags
}

var specs = map[string]*spec{
	"point-c1": {
		models: []string{"selnet"}, conns: 1, readRoute: routeEstimate,
		newTraffic: func(b *bench) (traffic, error) { return &pointTraffic{rng: b.in.rng(2)}, nil },
	},
	"batch-kinds": {
		models: estimatorKinds, conns: 2, readRoute: routeBatch,
		newTraffic: func(b *bench) (traffic, error) { return newBatchTraffic(b) },
	},
	"mixed-rw": {
		models: []string{"selnet"}, conns: 2, readRoute: routeEstimate, openLoop: true, durable: true,
		// A low delta_U with a fixed short retrain makes retrains frequent
		// and alike, so each run sees many of them rather than one or two.
		flags:      []string{"-delta-u", "0", "-retrain-epochs", "3"},
		newTraffic: func(b *bench) (traffic, error) { return newMixedTraffic(b) },
	},
}

// bench is one invocation's state.
type bench struct {
	cfg       config
	spec      *spec
	dir       string
	in        *inputs
	d         *daemon
	conns     []*conn
	led       *ledger
	rep       *report
	queueFull atomic.Int64
	out       io.Writer
}

// deadline bounds a whole invocation; past it the daemon is killed and
// the run fails rather than hang.
const deadline = 170 * time.Second

func main() {
	abort := func(why string) {
		if d := running.Load(); d != nil {
			d.kill()
		}
		fmt.Fprintln(os.Stderr, "e2ebench:", why)
		os.Exit(1)
	}
	time.AfterFunc(deadline, func() { abort(fmt.Sprintf("run exceeded %s", deadline)) })
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { abort(fmt.Sprintf("stopped by %v", <-sig)) }()
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	b := &bench{cfg: cfg, spec: specs[cfg.workload], led: &ledger{}, rep: newReport(), out: stdout}
	correct, err := b.run()
	if b.d != nil {
		if serr := b.d.stop(); serr != nil && err == nil {
			err = serr
		}
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	b.led.print(stdout)
	b.rep.print(stdout)
	names := endToEnd
	if cfg.trace {
		names = perLayer()
	}
	attempted, failed := b.led.totals()
	line, err := finalLine(correct, attempted, failed, b.rep, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		fmt.Fprintln(os.Stderr, "e2ebench: answers did not match the saved models, or an acknowledged update was lost")
		return 1
	}
	return 0
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// run executes the workload and reports whether every check passed.
func (b *bench) run() (bool, error) {
	if _, err := os.Stat(filepath.Join(b.cfg.root, "go.mod")); err != nil {
		return false, fmt.Errorf("-root %s is not a repository checkout: %w", b.cfg.root, err)
	}
	var err error
	b.dir, err = os.MkdirTemp(filepath.Join(b.cfg.root, ".bench_build"), "run-")
	if err != nil {
		return false, err
	}
	t0 := time.Now()
	if b.in, err = makeInputs(b.cfg.seed, b.dir, b.spec.models); err != nil {
		return false, fmt.Errorf("build inputs: %w", err)
	}
	b.logf("inputs: %d vectors, dim %d, models %v, accuracy sample %d, built in %s",
		b.in.db.Size(), b.in.db.Dim, b.spec.models, len(b.in.sample), time.Since(t0).Round(time.Millisecond))
	// Write the input files (and anything an earlier run left dirty) back
	// now, so their writeback does not land in the daemon's journal
	// fsyncs during the measurement.
	syscall.Sync()

	if err := b.setup(); err != nil {
		return false, err
	}
	for i := 0; i < b.spec.conns; i++ {
		b.conns = append(b.conns, newConn(b.d.base))
	}
	defer func() {
		for _, c := range b.conns {
			c.close()
		}
	}()
	correct, err := b.accuracy()
	if err != nil {
		return false, err
	}
	tr, err := b.spec.newTraffic(b)
	if err != nil {
		return false, err
	}
	if md, ok := tr.(*mixedTraffic); ok {
		md.model = b.in.models[0]
		s, err := takeSnapshot(b.conns[0])
		if err != nil {
			return false, err
		}
		md.initGen, _, _ = s.stats.counters(md.model)
		md.safeUntil.Store(time.Now().UnixNano())
	}
	ok, err := b.measure(tr)
	if err != nil {
		return false, err
	}
	correct = correct && ok
	rss, err := b.d.peakRSSMB()
	if err != nil {
		return false, err
	}
	b.rep.set("server_rss_mb", rss, "MB", "VmHWM")
	attempted, failed := b.led.totals()
	b.rep.set("failed_frac", float64(failed)/float64(max(attempted, 1)), "ratio", fmt.Sprintf("%d of %d", failed, attempted))
	return correct, nil
}

// daemonArgs are the selestd flags of this workload: every model served
// by name, the first attached to the database for updates.
func (b *bench) daemonArgs(journal string) []string {
	args := []string{"-dist", "cosine", "-data", b.in.models[0] + "=" + b.in.dbCSV}
	if b.spec.durable {
		args = append(args, "-journal-dir", journal)
	}
	for _, m := range b.in.models {
		args = append(args, "-model", m+"="+b.in.paths[m])
	}
	return append(args, b.spec.flags...)
}

// setup launches the daemon setupLaunches times, timing each from launch
// to the first answered estimate, and keeps the last one running.
func (b *bench) setup() error {
	probeBody, err := json.Marshal(estimateReq{Model: b.in.models[0], Query: b.in.sample[0].X, T: b.in.sample[0].T})
	if err != nil {
		return err
	}
	var times []float64
	for i := 0; i < setupLaunches; i++ {
		journal := filepath.Join(b.dir, fmt.Sprintf("journal-%d", i))
		d, err := startDaemon(b.cfg.selestd, b.daemonArgs(journal), filepath.Join(b.dir, fmt.Sprintf("selestd-%d.log", i)))
		if err != nil {
			return err
		}
		b.d = d
		probe := newConn(d.base)
		took, err := d.waitReady(func() bool {
			return probe.post(routeEstimate, routeEstimate, probeBody, nil).ok()
		}, 120*time.Second)
		probe.close()
		if err != nil {
			return err
		}
		times = append(times, took.Seconds())
		if i < setupLaunches-1 {
			if err := d.stop(); err != nil {
				return err
			}
			b.d = nil
		}
	}
	b.rep.set("setup_s", median(times), "s", fmt.Sprintf("median of %d launches", len(times)))
	return nil
}

// accuracy sends the VC-bound-sized sample to every model through the
// batch route, checks each answer against the in-process model, and
// scores the answers against the exact counts.
func (b *bench) accuracy() (bool, error) {
	qs := b.in.sampleQueries()
	c := b.conns[0]
	var qerrs []float64
	mismatched := 0
	for _, m := range b.in.models {
		want := b.in.refBatch(m, qs)
		for lo := 0; lo < len(qs); lo += batchSize {
			hi := min(lo+batchSize, len(qs))
			req := batchReq{Model: m}
			for _, q := range qs[lo:hi] {
				req.Queries = append(req.Queries, q.x)
				req.Ts = append(req.Ts, q.t)
			}
			body, err := json.Marshal(req)
			if err != nil {
				return false, err
			}
			var resp batchResp
			cl := c.post(routeBatch, routeBatch, body, &resp)
			b.led.count("accuracy", cl)
			if !cl.ok() {
				continue
			}
			if !equal(resp.Estimates, want[lo:hi]) {
				mismatched++
			}
			for i, v := range resp.Estimates {
				qerrs = append(qerrs, metrics.QError(v, b.in.sample[lo+i].Y, 1))
			}
		}
	}
	b.logf("accuracy: %d sample queries x %d models, %d mismatched batches", len(qs), len(b.in.models), mismatched)
	if len(qerrs) == 0 {
		return false, errors.New("accuracy phase answered nothing")
	}
	b.rep.set("qerror_p50", median(qerrs), "ratio", fmt.Sprintf("n=%d", len(qerrs)))
	b.rep.setTail("qerror_p95", qerrs, 0.95, "ratio")
	return mismatched == 0, nil
}

// measure runs warm-up, the timed window(s) and, for read-only
// workloads, the write probe; then it checks answers and derives metrics.
func (b *bench) measure(tr traffic) (bool, error) {
	if err := tr.drive(b, newWindow("warmup", false, warmup)); err != nil {
		return false, err
	}
	total := time.Duration(b.cfg.seconds) * time.Second
	var main, traced *window
	var before, after snapshot
	var err error
	if !b.cfg.trace {
		main = newWindow("window", false, total)
		main.report = true
		if err := tr.drive(b, main); err != nil {
			return false, err
		}
	} else {
		main = newWindow("window", false, total/2)
		if err := tr.drive(b, main); err != nil {
			return false, err
		}
		if before, err = takeSnapshot(b.conns[0]); err != nil {
			return false, err
		}
		md, _ := tr.(*mixedTraffic)
		if md != nil {
			gen, cnt, _ := before.stats.counters(md.model)
			md.gens.observe(gen, cnt)
		}
		traced = newWindow("window-traced", true, total/2)
		traced.report = true
		if err := tr.drive(b, traced); err != nil {
			return false, err
		}
		if err := traced.pollTraces(b.conns[0]); err != nil {
			return false, err
		}
		if after, err = takeSnapshot(b.conns[0]); err != nil {
			return false, err
		}
		if md != nil {
			gen, cnt, _ := after.stats.counters(md.model)
			md.gens.observe(gen, cnt)
		}
	}

	// Writes: inside the window for the open loop, else a probe after it.
	writes := main
	var probeBefore, probeAfter snapshot
	if b.cfg.trace {
		writes = traced
		probeBefore, probeAfter = before, after
	}
	if !b.spec.openLoop {
		probe := newWindow("write-probe", b.cfg.trace, 0)
		if b.cfg.trace {
			if probeBefore, err = takeSnapshot(b.conns[0]); err != nil {
				return false, err
			}
		}
		if err := writeProbe(b, probe); err != nil {
			return false, err
		}
		if b.cfg.trace {
			if probeAfter, err = takeSnapshot(b.conns[0]); err != nil {
				return false, err
			}
		}
		writes = probe
	}
	if b.spec.openLoop {
		late := append([]float64(nil), main.late...)
		if traced != nil {
			late = append(late, traced.late...)
		}
		b.logBacklog(main)
		v, used := tailQuantile(late, 0.99)
		b.logf("load generator lateness p%s %.3f ms (bound %.0f ms)", trimFloat(used*100), v, lateBound)
		if v > lateBound {
			return false, fmt.Errorf("run invalid, not slow: the load generator sent p%s of its requests up to %.1f ms late (bound %.0f ms)",
				trimFloat(used*100), v, lateBound)
		}
	}
	correct, err := b.checkAnswers(tr)
	if err != nil {
		return false, err
	}
	b.endToEndMetrics(main, writes)
	if b.cfg.trace {
		b.layerMetrics(tr, main, traced, writes, before, after, probeBefore, probeAfter)
	}
	return correct, nil
}

// logBacklog prints the first and last quarter of the window side by
// side: a rate the daemon sustains shows no growth from one to the other.
func (b *bench) logBacklog(w *window) {
	quarters := func(xs []float64) (first, last float64) {
		n := len(xs) / 4
		if n == 0 {
			return 0, 0
		}
		return median(append([]float64(nil), xs[:n]...)), median(append([]float64(nil), xs[len(xs)-n:]...))
	}
	r0, r1 := quarters(w.latencies())
	var vis []float64
	for _, rec := range w.writes {
		if !rec.visible.IsZero() {
			vis = append(vis, ms(rec.visible.Sub(rec.sent)))
		}
	}
	v0, v1 := quarters(vis)
	b.logf("backlog check: read latency median %.3f ms in the first quarter, %.3f ms in the last; update-to-visible %.1f ms, %.1f ms",
		r0, r1, v0, v1)
}

// checkAnswers runs the workload's correctness gate and confirms every
// acknowledged update was applied.
func (b *bench) checkAnswers(tr traffic) (bool, error) {
	var checked, mismatched int
	switch d := tr.(type) {
	case *pointTraffic:
		checked, mismatched = d.check(b)
	case *batchTraffic:
		checked, mismatched = int(d.checked.Load()), int(d.bad.Load())
	case *mixedTraffic:
		checked, mismatched = d.check(b)
	}
	var s statsSnap
	if err := b.conns[0].getJSON("/stats", &s); err != nil {
		return false, err
	}
	ing := s.Ingest[b.in.models[0]]
	lost := ing.AppliedSeq < ing.NextSeq
	b.logf("correctness: %d answers checked against the saved model, %d mismatched; updates acknowledged through seq %d, applied through %d",
		checked, mismatched, ing.NextSeq, ing.AppliedSeq)
	if checked == 0 {
		return false, errors.New("no answer was checked")
	}
	return mismatched == 0 && !lost, nil
}

func (b *bench) endToEndMetrics(main, writes *window) {
	p50, p99, used, qps := main.readFigures(0.99)
	note := fmt.Sprintf("median over %d stretches of the window, n=%d requests", stretches, len(main.reads))
	b.rep.set("read_p50_ms", p50, "ms", note)
	b.rep.set("read_p99_ms", p99, "ms", fmt.Sprintf("p%s per stretch, %s", trimFloat(used*100), note))
	b.rep.set("read_qps", qps, "1/s", note)
	var ack, vis []float64
	for _, w := range writes.writes {
		ack = append(ack, ms(w.acked.Sub(w.sent)))
		vis = append(vis, ms(w.visible.Sub(w.sent)))
	}
	b.rep.set("write_ack_p50_ms", median(ack), "ms", fmt.Sprintf("n=%d, %s", len(ack), writes.phase))
	b.rep.set("write_visible_p50_ms", median(vis), "ms", fmt.Sprintf("n=%d, %s", len(vis), writes.phase))
	b.rep.setTail("write_visible_p99_ms", vis, 0.99, "ms")
}

func (b *bench) layerMetrics(tr traffic, untraced, traced, writes *window, before, after, pBefore, pAfter snapshot) {
	var reads []call
	var updates []call
	calls := traced.calls
	if writes != traced {
		calls = append(append([]call(nil), calls...), writes.calls...)
	}
	for _, c := range calls {
		switch c.Route {
		case b.spec.readRoute:
			reads = append(reads, c)
		case routeUpdate:
			updates = append(updates, c)
		}
	}
	spans := traced.spans
	for id, sp := range writes.spans {
		spans[id] = sp
	}
	pairs := join(reads, spans)
	sp := splitOf(pairs)
	b.rep.set("client.rtt_us", sp.RTT, "us", fmt.Sprintf("%s, %d joined", b.spec.readRoute, sp.N))
	b.rep.set("net.transport_us", sp.Transport, "us", "")
	b.rep.set("serve.decode_us", sp.Stages["decode"], "us", "")
	b.rep.set("serve.encode_us", sp.Stages["encode"], "us", "")
	b.rep.set("serve.unaccounted_us", sp.Unaccounted, "us", "server total minus its stages")
	b.rep.set("cache.lookup_us", sp.Stages["cache"], "us", "")
	b.rep.set("batcher.queue_us", sp.Stages["queue"], "us", "")
	b.rep.set("batcher.fuse_us", sp.Stages["fuse"], "us", "")
	b.rep.set("infer.execute_us", sp.Stages["execute"], "us", "")
	for _, k := range estimatorKinds {
		b.rep.set("estimator."+k+".execute_us", sp.ByModel[k], "us", "")
	}
	joinedRatio := float64(len(pairs)) / float64(max(len(reads), 1))
	b.rep.set("trace.joined_ratio", joinedRatio, "ratio", fmt.Sprintf("%d of %d client spans", len(pairs), len(reads)))
	b.logf("split of %s (mean over %d joined requests): client round trip %.1f us = transport %.1f + decode %.1f + cache %.1f + queue %.1f + fuse %.1f + execute %.1f + encode %.1f + unaccounted remainder %.1f (%.2f%% of the round trip: server time outside every stage)",
		b.spec.readRoute, sp.N, sp.RTT, sp.Transport, sp.Stages["decode"], sp.Stages["cache"], sp.Stages["queue"],
		sp.Stages["fuse"], sp.Stages["execute"], sp.Stages["encode"], sp.Unaccounted, 100*ratio(sp.Unaccounted, sp.RTT))

	// Counter deltas over the traced window.
	hits := after.prom.delta(before.prom, "selestd_cache_hits_total")
	misses := after.prom.delta(before.prom, "selestd_cache_misses_total")
	b.rep.set("cache.hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("%.0f hits, %.0f misses", hits, misses))
	b.rep.set("cache.evictions", after.prom.delta(before.prom, "selestd_cache_evictions_total"), "count", "")
	var mc modelCounters
	if md, ok := tr.(*mixedTraffic); ok {
		mc = md.gens.total()
		b.logf("model counters span %d generation(s)", md.gens.generations())
	} else {
		for _, m := range b.in.models {
			_, c1, _ := after.stats.counters(m)
			_, c0, _ := before.stats.counters(m)
			mc = mc.add(c1.sub(c0))
		}
	}
	b.rep.set("batcher.reqs_per_batch", ratio(float64(mc.Requests), float64(mc.Batches)), "count",
		fmt.Sprintf("%d requests in %d batches", mc.Requests, mc.Batches))
	b.rep.set("batcher.timeout_ratio", ratio(float64(mc.Timeouts), float64(mc.Batches)), "ratio", "flush-timer expiries per batch")
	b.rep.set("infer.plan_compiles", float64(mc.Compiles), "count", "")
	b.rep.set("infer.plan_miss_ratio", ratio(float64(mc.Misses), float64(mc.Checkouts)), "ratio",
		fmt.Sprintf("%d misses in %d checkouts", mc.Misses, mc.Checkouts))
	for _, k := range kernels {
		lbl := `{kernel="` + k + `"}`
		calls := after.prom.delta(before.prom, "selestd_kernel_calls_total"+lbl)
		secs := after.prom.delta(before.prom, "selestd_kernel_seconds_total"+lbl)
		b.rep.set("kernel."+metricPart(k)+".calls", calls, "count", "")
		b.rep.set("kernel."+metricPart(k)+".us_per_call", ratio(secs*1e6, calls), "us", "")
	}
	if extra := unlisted(after.prom.labelValues("selestd_kernel_calls_total", "kernel")); len(extra) > 0 {
		b.logf("kernels not in the fixed metric list: %s", strings.Join(extra, ", "))
	}

	// Write path.
	upairs := join(updates, spans)
	var acks []float64
	for _, p := range upairs {
		acks = append(acks, float64(p.server.Stages["execute"])/1e3)
	}
	b.rep.set("ingest.ack_us", mean(acks), "us", fmt.Sprintf("n=%d update spans, %s", len(acks), writes.phase))
	i0, i1 := pBefore.stats.Ingest[b.in.models[0]], pAfter.stats.Ingest[b.in.models[0]]
	cycles := float64((i1.Retrained + i1.Skipped) - (i0.Retrained + i0.Skipped))
	b.rep.set("ingest.fsyncs_per_batch", ratio(float64(i1.JournalSyncs-i0.JournalSyncs), float64(i1.JournaledBatches-i0.JournaledBatches)), "ratio", "")
	b.rep.set("ingest.retrain_ratio", ratio(float64(i1.Retrained-i0.Retrained), cycles), "ratio",
		fmt.Sprintf("%d retrained of %.0f cycles", i1.Retrained-i0.Retrained, cycles))
	b.rep.set("ingest.batches_per_cycle", ratio(float64(i1.BatchesApplied-i0.BatchesApplied), cycles), "ratio", "")
	var a2v []float64
	for _, w := range writes.writes {
		a2v = append(a2v, ms(w.visible.Sub(w.acked)))
	}
	b.rep.set("ingest.apply_to_visible_ms", mean(a2v), "ms", fmt.Sprintf("n=%d", len(a2v)))
	b.rep.set("ingest.queue_full", float64(b.queueFull.Load()), "count", "429 answers to updates")

	late := 0.0
	note := "closed loop: requests wait for the previous answer"
	if b.spec.openLoop {
		var used float64
		late, used = tailQuantile(append(append([]float64(nil), untraced.late...), traced.late...), 0.99)
		note = fmt.Sprintf("p%s", trimFloat(used*100))
	}
	b.rep.set("loadgen.late_p99_ms", late, "ms", note)
	p0, _, _, _ := untraced.readFigures(0.99)
	p1, _, _, _ := traced.readFigures(0.99)
	b.rep.set("trace.overhead_pct", 100*(p1-p0)/p0, "%", fmt.Sprintf("read_p50 %.4g ms traced vs %.4g ms untraced", p1, p0))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unlisted returns the kernel names the daemon reports that the fixed
// per-layer list does not carry.
func unlisted(names []string) []string {
	known := map[string]bool{}
	for _, k := range kernels {
		known[k] = true
	}
	var out []string
	for _, n := range names {
		if !known[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n          int
		want, used float64
	}{
		{2000, 0.99, 0.99}, // 20 samples beyond p99
		{1000, 0.99, 0.99}, // exactly 10 beyond
		{500, 0.99, 0.98},  // p99 would leave 5: lowered to 1-10/500
		{100, 0.99, 0.90},  // 10 beyond p90
		{40, 0.99, 0.75},   // 10 beyond p75
		{15, 0.99, 0.5},    // floor at the median
		{2000, 0.95, 0.95}, // a lower request is kept as asked
		{1, 0.99, 0.5},     // one sample: its median
		{20, 0.5, 0.5},     // median with exactly 10 beyond
		{19, 0.5, 0.5},     // median is the floor even with 9 beyond
		{12, 0.95, 0.5},    // 1-10/12 < 0.5: median
		{200, 0.999, 0.95}, // 10 beyond p95
		{1100, 0.999, 1 - 10.0/1100},
	}
	for _, c := range cases {
		xs := seq(c.n)
		v, used := tailQuantile(xs, c.want)
		if math.Abs(used-c.used) > 1e-12 {
			t.Errorf("n=%d want p%g: used %g, expected %g", c.n, c.want*100, used, c.used)
		}
		if beyond := float64(c.n) * (1 - used); c.used > 0.5 && beyond < minTail-1e-9 {
			t.Errorf("n=%d: only %g samples beyond p%g", c.n, beyond, used*100)
		}
		// xs is 1..n sorted now; the interpolated quantile is 1+used*(n-1).
		if wantV := 1 + used*float64(c.n-1); math.Abs(v-wantV) > 1e-9 {
			t.Errorf("n=%d: value %g, expected %g", c.n, v, wantV)
		}
	}
	if v, _ := tailQuantile(nil, 0.99); !math.IsNaN(v) {
		t.Errorf("empty sample: got %g, want NaN", v)
	}
}

// A stalled request delays the requests due behind it; the open loop
// must charge that wait to them (timing from the due time) while the
// generator itself is not late.
func TestScheduleTimesFromDueTime(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 45 * time.Millisecond
	w := newWindow("test", false, 100*time.Millisecond)
	var dues, dones []time.Time
	schedule(w, interval, func(due time.Time) {
		if len(dues) == 0 {
			time.Sleep(stall)
		}
		dues = append(dues, due)
		dones = append(dones, time.Now())
	})
	if len(dues) != 10 {
		t.Fatalf("sent %d requests in 100ms at 10ms intervals, want 10", len(dues))
	}
	for i, due := range dues {
		if want := w.start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Fatalf("request %d due at %v, want %v", i, due.Sub(w.start), want.Sub(w.start))
		}
	}
	// Requests 1..4 fell due during the stall: each waited for it, and its
	// latency from the due time covers that wait.
	for i := 1; i <= 4; i++ {
		if lat := dones[i].Sub(dues[i]); lat < stall-time.Duration(i)*interval {
			t.Errorf("request %d: latency %v from due does not include the stall", i, lat)
		}
	}
	if len(w.late) != 10 {
		t.Fatalf("recorded %d lateness samples, want 10", len(w.late))
	}
	for i, late := range w.late {
		if late < 0 || late > 15 {
			t.Errorf("request %d: generator lateness %.3fms; a server stall is not generator lateness", i, late)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "read_p50_ms", "kernel.matmul_bias_relu.us_per_call", "a", "9x", "a-b.c_d"} {
		if !validMetricName(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "-x", "kernel.matmul+bias", "a b", "µs", "a/b", strings.Repeat("a", 65)} {
		if validMetricName(name) {
			t.Errorf("%q accepted", name)
		}
	}
	if got := metricPart("matmul+bias+relu"); got != "matmul_bias_relu" {
		t.Errorf("metricPart = %q", got)
	}
	seen := map[string]bool{}
	for _, name := range append(append([]string(nil), endToEnd...), perLayer()...) {
		if !validMetricName(name) {
			t.Errorf("reported metric %q has an invalid name", name)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
	}
}

func TestReportRejectsBadNamesAndValues(t *testing.T) {
	r := newReport()
	r.set("ok", 1.5, "ms", "")
	r.set("nan", math.NaN(), "ms", "")
	if _, err := finalLine(true, 1, 0, r, []string{"ok"}); err != nil {
		t.Fatal(err)
	}
	if _, err := finalLine(true, 1, 0, r, []string{"ok", "missing"}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := finalLine(true, 1, 0, r, []string{"nan"}); err == nil {
		t.Error("NaN metric accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid name accepted")
		}
	}()
	r.set("bad name", 1, "ms", "")
}

const promBefore = `# HELP selestd_cache_hits_total Estimate cache hits.
# TYPE selestd_cache_hits_total counter
selestd_cache_hits_total 10
selestd_cache_misses_total 90
selestd_kernel_seconds_total{kernel="matmul+bias+relu"} 0.5
selestd_kernel_calls_total{kernel="matmul+bias+relu"} 1000
selestd_kernel_calls_total{kernel="pwl"} 7
selestd_http_request_duration_seconds_bucket{route="/v1/estimate",le="+Inf"} 100
`

const promAfter = `selestd_cache_hits_total 70
selestd_cache_misses_total 110
selestd_kernel_seconds_total{kernel="matmul+bias+relu"} 0.75
selestd_kernel_calls_total{kernel="matmul+bias+relu"} 1500
selestd_kernel_calls_total{kernel="pwl"} 7
selestd_kernel_calls_total{kernel="softmax"} 3
selestd_http_request_duration_seconds_bucket{route="/v1/estimate",le="+Inf"} 180
`

func TestMetricsDelta(t *testing.T) {
	before, err := parseProm([]byte(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm([]byte(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if d := after.delta(before, "selestd_cache_hits_total"); d != 60 {
		t.Errorf("hits delta %g, want 60", d)
	}
	lbl := `{kernel="matmul+bias+relu"}`
	calls := after.delta(before, "selestd_kernel_calls_total"+lbl)
	secs := after.delta(before, "selestd_kernel_seconds_total"+lbl)
	if calls != 500 || math.Abs(secs*1e6/calls-500) > 1e-9 {
		t.Errorf("kernel delta: %g calls, %g us/call; want 500, 500", calls, secs*1e6/calls)
	}
	if d := after.delta(before, `selestd_kernel_calls_total{kernel="softmax"}`); d != 3 {
		t.Errorf("series new in after: delta %g, want 3", d)
	}
	if d := after.delta(before, `selestd_http_request_duration_seconds_bucket{route="/v1/estimate",le="+Inf"}`); d != 80 {
		t.Errorf("bucket delta %g, want 80", d)
	}
	got := unlisted(after.labelValues("selestd_kernel_calls_total", "kernel"))
	if len(got) != 1 || got[0] != "softmax" {
		t.Errorf("unlisted kernels %v, want [softmax]", got)
	}
	if _, err := parseProm([]byte("selestd_x notanumber\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

func statsJSON(t *testing.T, gen, requests, batches, compiles uint64, applied uint64) statsSnap {
	t.Helper()
	raw := map[string]any{
		"models": []any{map[string]any{
			"name": "selnet", "generation": gen,
			"batcher": map[string]any{"requests": requests, "batches": batches, "timeouts": batches},
			"plans":   map[string]any{"checkouts": requests, "misses": compiles, "compiles": compiles},
		}},
		"ingest": map[string]any{"selnet": map[string]any{"applied_seq": applied, "retrained": gen - 1}},
	}
	data, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	var s statsSnap
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// Coalescer and plan-pool counters restart with each hot-swapped
// generation; the window's delta must add each generation's share.
func TestStatsDeltaAcrossGenerations(t *testing.T) {
	snaps := []statsSnap{
		statsJSON(t, 1, 100, 50, 8, 3), // window start
		statsJSON(t, 1, 130, 60, 8, 4), // poll
		statsJSON(t, 2, 5, 5, 2, 5),    // after a swap: counters restarted
		statsJSON(t, 2, 25, 20, 3, 6),  // poll
		statsJSON(t, 3, 10, 10, 2, 7),  // window end, another swap
	}
	var g genDelta
	for _, s := range snaps {
		gen, c, ok := s.counters("selnet")
		if !ok {
			t.Fatal("model missing from stats")
		}
		g.observe(gen, c)
	}
	got := g.total()
	want := modelCounters{Requests: 30 + 25 + 10, Batches: 10 + 20 + 10, Timeouts: 10 + 20 + 10,
		Checkouts: 30 + 25 + 10, Misses: 0 + 3 + 2, Compiles: 0 + 3 + 2}
	if got != want {
		t.Errorf("delta %+v, want %+v", got, want)
	}
	if g.generations() != 3 {
		t.Errorf("%d generations, want 3", g.generations())
	}
	if _, _, ok := snaps[0].counters("dnn"); ok {
		t.Error("unknown model reported present")
	}
	if snaps[4].Ingest["selnet"].AppliedSeq != 7 || snaps[4].Ingest["selnet"].Retrained != 2 {
		t.Errorf("ingest stats not parsed: %+v", snaps[4].Ingest["selnet"])
	}
}

func TestJoinByTraceID(t *testing.T) {
	start := time.Now()
	calls := []call{
		{Route: routeEstimate, TraceID: 0x1a, Start: start, RTT: 1000 * time.Microsecond, Status: 200},
		{Route: routeEstimate, TraceID: 0x1b, Start: start, RTT: 3000 * time.Microsecond, Status: 200},
		{Route: routeEstimate, TraceID: 0x1c, RTT: time.Millisecond, Status: 200}, // span never polled
		{Route: routeEstimate, TraceID: 0, RTT: time.Millisecond},                 // no X-Trace-Id
		{Route: routeBatch, TraceID: 0x1d, RTT: time.Millisecond, Status: 200},    // route differs from its span
	}
	spans := spanStore{}
	spans.add([]serverSpan{
		{TraceID: "000000000000001a", Route: routeEstimate, Model: "selnet", TotalNs: 800_000,
			Stages: map[string]int64{"decode": 100_000, "fuse": 500_000, "execute": 150_000}},
		{TraceID: "000000000000001b", Route: routeEstimate, Model: "dnn", TotalNs: 2_000_000,
			Stages: map[string]int64{"decode": 200_000, "execute": 1_700_000, "encode": 50_000}},
		{TraceID: "000000000000001d", Route: routeEstimate, TotalNs: 1},
		{TraceID: "zz", Route: routeEstimate}, // unparseable: ignored
	})
	spans.add([]serverSpan{{TraceID: "000000000000001a", Route: routeEstimate, Model: "selnet", TotalNs: 800_000,
		Stages: map[string]int64{"decode": 100_000, "fuse": 500_000, "execute": 150_000}}}) // polled twice
	pairs := join(calls, spans)
	if len(pairs) != 2 {
		t.Fatalf("joined %d of %d calls, want 2", len(pairs), len(calls))
	}
	if pairs[0].server.Model != "selnet" || pairs[1].server.Model != "dnn" {
		t.Errorf("pairs matched to the wrong spans: %+v", pairs)
	}
	s := splitOf(pairs)
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	check("rtt", s.RTT, 2000)
	check("transport", s.Transport, (200+1000)/2.0)
	check("decode", s.Stages["decode"], 150)
	check("execute", s.Stages["execute"], (150+1700)/2.0)
	check("unaccounted", s.Unaccounted, (50+50)/2.0)
	check("selnet execute", s.ByModel["selnet"], 150)
	check("dnn execute", s.ByModel["dnn"], 1700)
	sum := s.Transport + s.Unaccounted
	for _, v := range s.Stages {
		sum += v
	}
	check("layers sum to the round trip", sum, s.RTT)
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tselestd\nVmPeak:\t  900000 kB\nVmHWM:\t   81920 kB\nVmRSS:\t   70000 kB\n"
	mb, err := parseVmHWM([]byte(status))
	if err != nil || mb != 80 {
		t.Errorf("VmHWM = %g MB, %v; want 80", mb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("missing VmHWM accepted")
	}
}

// A burst of noise in one stretch of the window must not move the read
// figures, which are medians over the stretches.
func TestReadFiguresMedianOverStretches(t *testing.T) {
	w := newWindow("test", false, 5*time.Second)
	for s := 0; s < stretches; s++ {
		for i := 0; i < 1000; i++ {
			lat := 1.0 + float64(i%100)/100 // 1.00 .. 1.99 ms
			if s == 2 {
				lat *= 10 // the noisy stretch
			}
			done := w.start.Add(time.Duration(s)*time.Second + time.Duration(i+1)*time.Millisecond - time.Microsecond)
			w.reads = append(w.reads, read{done: done, model: "m", ms: lat, n: 2})
		}
	}
	p50, p99, used, qps := w.readFigures(0.99)
	if used != 0.99 {
		t.Errorf("used p%g, want p99 with 1000 samples per stretch", used*100)
	}
	if p50 < 1.45 || p50 > 1.55 {
		t.Errorf("p50 %g moved by the noisy stretch", p50)
	}
	if p99 < 1.95 || p99 > 2 {
		t.Errorf("p99 %g moved by the noisy stretch", p99)
	}
	// 2000 estimates answered per one-second stretch.
	if math.Abs(qps-2000) > 5 {
		t.Errorf("qps %g, want about 2000", qps)
	}
}

// Requests to models of different cost are separate modes; the read
// figures average each model's own quantile instead of taking a quantile
// of the mixture, which would land between the modes.
func TestReadFiguresAverageModels(t *testing.T) {
	w := newWindow("test", false, time.Second)
	for i := 0; i < 2000; i++ {
		done := w.start.Add(time.Duration(i) * 400 * time.Microsecond)
		w.reads = append(w.reads,
			read{done: done, model: "fast", ms: 1 + float64(i%10)/100, n: 1},
			read{done: done, model: "slow", ms: 3 + float64(i%10)/100, n: 1})
	}
	p50, _, _, _ := w.readFigures(0.99)
	if math.Abs(p50-2.045) > 1e-9 {
		t.Errorf("p50 %g, want the mean of the models' medians 2.045", p50)
	}
}

// BENCHMARK.json at the repository root lists the metrics the final line
// carries; the two must name the same metrics in the same order.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEnd, ",") {
		t.Errorf("end_to_end %v, reported %v", e2e, endToEnd)
	}
	if strings.Join(layers, ",") != strings.Join(perLayer(), ",") {
		t.Errorf("per_layer %v, reported %v", layers, perLayer())
	}
}

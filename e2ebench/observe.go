package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// This file reads what selestd already exposes — /debug/traces spans,
// /stats and /metrics counters — and turns it into per-layer figures.

// serverSpan is one request span from GET /debug/traces.
type serverSpan struct {
	TraceID string           `json:"trace_id"`
	Route   string           `json:"route"`
	Model   string           `json:"model"`
	TotalNs int64            `json:"total_ns"`
	Stages  map[string]int64 `json:"stages_ns"`
}

type tracesResponse struct {
	Recent []serverSpan `json:"recent"`
}

// traceRing is the daemon's recent-span ring size; the benchmark polls
// at least once per this many requests so no span is overwritten unread.
const traceRing = 256

// spanStore collects server spans by trace ID across polls.
type spanStore map[uint64]serverSpan

func (s spanStore) add(spans []serverSpan) {
	for _, sp := range spans {
		if id, err := strconv.ParseUint(sp.TraceID, 16, 64); err == nil && id != 0 {
			s[id] = sp
		}
	}
}

// joined pairs a client span with the server span of the same trace ID.
type joined struct {
	client call
	server serverSpan
}

// join matches client calls to server spans by trace ID; a call whose
// span was never pulled (or belongs to another route) is left out.
func join(calls []call, spans spanStore) []joined {
	var pairs []joined
	for _, c := range calls {
		if sp, ok := spans[c.TraceID]; ok && c.TraceID != 0 && sp.Route == c.Route {
			pairs = append(pairs, joined{client: c, server: sp})
		}
	}
	return pairs
}

// serverStages is the order the daemon stamps a request's stages in.
var serverStages = []string{"decode", "cache", "queue", "fuse", "execute", "encode"}

// split is the mean per-request time of each layer over joined pairs, in
// microseconds. RTT = Transport + sum(Stages) + Unaccounted, exactly.
type split struct {
	N           int
	RTT         float64
	Transport   float64
	Stages      map[string]float64
	Unaccounted float64
	ByModel     map[string]float64 // mean execute per model
}

func splitOf(pairs []joined) split {
	s := split{N: len(pairs), Stages: map[string]float64{}, ByModel: map[string]float64{}}
	if len(pairs) == 0 {
		return s
	}
	perModel := map[string]int{}
	for _, p := range pairs {
		total := float64(p.server.TotalNs) / 1e3
		s.RTT += float64(p.client.RTT.Nanoseconds()) / 1e3
		s.Transport += float64(p.client.RTT.Nanoseconds())/1e3 - total
		staged := 0.0
		for _, st := range serverStages {
			v := float64(p.server.Stages[st]) / 1e3
			s.Stages[st] += v
			staged += v
		}
		s.Unaccounted += total - staged
		s.ByModel[p.server.Model] += float64(p.server.Stages["execute"]) / 1e3
		perModel[p.server.Model]++
	}
	n := float64(len(pairs))
	s.RTT /= n
	s.Transport /= n
	s.Unaccounted /= n
	for k := range s.Stages {
		s.Stages[k] /= n
	}
	for m, c := range perModel {
		s.ByModel[m] /= float64(c)
	}
	return s
}

// statsSnap is the part of GET /stats the benchmark reads.
type statsSnap struct {
	Models []struct {
		Name       string `json:"name"`
		Generation uint64 `json:"generation"`
		Batcher    *struct {
			Requests uint64 `json:"requests"`
			Batches  uint64 `json:"batches"`
			Timeouts uint64 `json:"timeouts"`
		} `json:"batcher"`
		Plans *struct {
			Checkouts uint64 `json:"checkouts"`
			Misses    uint64 `json:"misses"`
			Compiles  uint64 `json:"compiles"`
		} `json:"plans"`
	} `json:"models"`
	Ingest map[string]ingestStats `json:"ingest"`
}

type ingestStats struct {
	NextSeq          uint64 `json:"next_seq"`
	AppliedSeq       uint64 `json:"applied_seq"`
	BatchesApplied   uint64 `json:"batches_applied"`
	Skipped          uint64 `json:"skipped"`
	Retrained        uint64 `json:"retrained"`
	JournaledBatches uint64 `json:"journaled_batches"`
	JournalSyncs     uint64 `json:"journal_syncs"`
}

// modelCounters are the per-generation counters of one served model. A
// hot-swap installs a new coalescer and plan pool, so they restart from
// zero with each generation.
type modelCounters struct {
	Requests, Batches, Timeouts uint64
	Checkouts, Misses, Compiles uint64
}

func (a modelCounters) sub(b modelCounters) modelCounters {
	return modelCounters{
		Requests: a.Requests - b.Requests, Batches: a.Batches - b.Batches, Timeouts: a.Timeouts - b.Timeouts,
		Checkouts: a.Checkouts - b.Checkouts, Misses: a.Misses - b.Misses, Compiles: a.Compiles - b.Compiles,
	}
}

func (a modelCounters) add(b modelCounters) modelCounters {
	return modelCounters{
		Requests: a.Requests + b.Requests, Batches: a.Batches + b.Batches, Timeouts: a.Timeouts + b.Timeouts,
		Checkouts: a.Checkouts + b.Checkouts, Misses: a.Misses + b.Misses, Compiles: a.Compiles + b.Compiles,
	}
}

// counters returns the named model's generation and counters.
func (s *statsSnap) counters(model string) (gen uint64, c modelCounters, ok bool) {
	for _, m := range s.Models {
		if m.Name != model {
			continue
		}
		if m.Batcher != nil {
			c.Requests, c.Batches, c.Timeouts = m.Batcher.Requests, m.Batcher.Batches, m.Batcher.Timeouts
		}
		if m.Plans != nil {
			c.Checkouts, c.Misses, c.Compiles = m.Plans.Checkouts, m.Plans.Misses, m.Plans.Compiles
		}
		return m.Generation, c, true
	}
	return 0, c, false
}

// genDelta accumulates one model's counters over a window that may span
// hot-swaps. observe is called with /stats snapshots in time order; the
// first fixes the baseline of the generation serving at the window's
// start, and generations first seen later start from zero. Counts a
// generation makes after its last observed snapshot are not seen, so
// observing often keeps the loss small.
type genDelta struct {
	first map[uint64]modelCounters
	last  map[uint64]modelCounters
	order []uint64
}

func (g *genDelta) observe(gen uint64, c modelCounters) {
	if g.first == nil {
		g.first, g.last = map[uint64]modelCounters{}, map[uint64]modelCounters{}
	}
	if _, seen := g.first[gen]; !seen {
		if len(g.order) == 0 {
			g.first[gen] = c
		} else {
			g.first[gen] = modelCounters{}
		}
		g.order = append(g.order, gen)
	}
	g.last[gen] = c
}

func (g *genDelta) total() modelCounters {
	var t modelCounters
	for _, gen := range g.order {
		t = t.add(g.last[gen].sub(g.first[gen]))
	}
	return t
}

// generations is how many distinct generations were observed.
func (g *genDelta) generations() int { return len(g.order) }

// promSnap is a parsed Prometheus text exposition: series (name plus
// label set as written) to value.
type promSnap map[string]float64

func parseProm(text []byte) (promSnap, error) {
	out := promSnap{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after-before for one series (0 when absent from both).
func (a promSnap) delta(before promSnap, series string) float64 {
	return a[series] - before[series]
}

// labelValues returns the values of label key over every series of the
// metric family name, e.g. the kernel names of selestd_kernel_calls_total.
func (a promSnap) labelValues(name, key string) []string {
	var out []string
	prefix := name + "{" + key + "=\""
	for series := range a {
		if rest, ok := strings.CutPrefix(series, prefix); ok {
			if v, _, ok := strings.Cut(rest, "\""); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// snapshot is one before/after reading of the daemon's counters.
type snapshot struct {
	stats statsSnap
	prom  promSnap
}

func takeSnapshot(c *conn) (snapshot, error) {
	var s snapshot
	if err := c.getJSON("/stats", &s.stats); err != nil {
		return s, err
	}
	text, err := c.get("/metrics")
	if err != nil {
		return s, err
	}
	s.prom, err = parseProm(text)
	return s, err
}

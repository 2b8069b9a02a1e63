package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"selnet/internal/metrics"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is noise, so the percentile is lowered
// until the sample supports it.
const minTail = 10

// tailQuantile returns the want-quantile of xs, or the highest quantile
// with at least minTail samples beyond it when xs is too small for want,
// together with the quantile actually used. The median is the floor.
// xs is sorted in place.
func tailQuantile(xs []float64, want float64) (value, used float64) {
	if len(xs) == 0 {
		return math.NaN(), want
	}
	sort.Float64s(xs)
	used = want
	if limit := 1 - float64(minTail)/float64(len(xs)); used > limit {
		used = limit
	}
	if used < 0.5 {
		used = 0.5
	}
	return metrics.Quantile(xs, used), used
}

// median returns the 0.5-quantile of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return metrics.Quantile(xs, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// validMetricName reports whether name is a legal metric name: it starts
// with a letter or digit and is at most 64 letters, digits, '_', '.'
// and '-'.
func validMetricName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, r := range name {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// metricPart maps a server-side label (a kernel name such as
// "matmul+bias+relu") to a metric name component.
func metricPart(label string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-' {
			return r
		}
		return '_'
	}, label)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the figures one invocation prints, in insertion order
// for the human-readable lines.
type report struct {
	order   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note, if given, is printed beside it (sample
// counts, the percentile actually used).
func (r *report) set(name string, value float64, unit, note string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("e2ebench: invalid metric name %q", name))
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// setTail records the want-quantile of xs under name, noting which
// quantile the sample size allowed.
func (r *report) setTail(name string, xs []float64, want float64, unit string) {
	v, used := tailQuantile(xs, want)
	r.set(name, v, unit, fmt.Sprintf("p%s of n=%d", trimFloat(used*100), len(xs)))
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", f), "0"), ".")
}

// print writes "name = value unit (note)" lines for every metric.
func (r *report) print(w io.Writer) {
	for _, name := range r.order {
		m := r.metrics[name]
		line := fmt.Sprintf("metric %-34s %14.6g %s", name, m.Value, m.Unit)
		if n := r.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// result is the final machine-readable line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finalLine renders the result JSON restricted to names, in which every
// value must be a finite number.
func finalLine(correct bool, attempted, failed int, r *report, names []string) (string, error) {
	out := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is not a finite number", n)
		}
		out.Metrics[n] = m
	}
	b, err := json.Marshal(out)
	return string(b), err
}

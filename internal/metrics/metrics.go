// Package metrics provides the measurement primitives the experiment
// harness uses: log-bucketed latency histograms with percentile queries,
// rate counters, and anomaly/availability trackers.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Histogram is a log-bucketed histogram of time.Duration samples. Buckets
// grow geometrically (×2^(1/8) per bucket, ~9% relative error), which is
// accurate enough for latency percentiles while staying allocation-free
// after construction. The zero value is NOT usable; call NewHistogram.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	histBucketsPerOctave = 8
	histOctaves          = 40 // covers 1ns .. ~18 minutes
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint64, histBucketsPerOctave*histOctaves),
		min:    math.MaxInt64,
	}
}

func bucketOf(d time.Duration) int {
	if d < 1 {
		d = 1
	}
	b := int(math.Log2(float64(d)) * histBucketsPerOctave)
	if b < 0 {
		b = 0
	}
	if b >= histBucketsPerOctave*histOctaves {
		b = histBucketsPerOctave*histOctaves - 1
	}
	return b
}

func bucketUpper(b int) time.Duration {
	return time.Duration(math.Exp2(float64(b+1) / histBucketsPerOctave))
}

// Observe records a sample.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of all samples (0 if empty).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the q-quantile (0 < q <= 1), with bucket resolution
// (~9% relative error). Quantile(0.5) is the median.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			u := bucketUpper(b)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Merge folds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Ratio tracks a boolean outcome rate: anomalies per read, availability
// per request, stale reads per probe.
type Ratio struct {
	Hits  uint64 // numerator (e.g. stale reads)
	Total uint64 // denominator (e.g. all reads)
}

// Observe records one outcome.
func (r *Ratio) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Value returns Hits/Total, or 0 when empty.
func (r *Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// String implements fmt.Stringer.
func (r *Ratio) String() string {
	return fmt.Sprintf("%d/%d (%.2f%%)", r.Hits, r.Total, 100*r.Value())
}

// Series is a labeled sequence of (x, y) points, the unit a figure-style
// experiment emits.
type Series struct {
	Name   string
	Points []Point
}

// Point is one measurement in a Series.
type Point struct {
	X float64
	Y float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Table is a simple fixed-column result table that formats itself with
// aligned columns — the unit a table-style experiment emits.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row; cells are formatted with fmt.Sprint.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Percentiles returns the given quantiles of a raw float64 sample set
// (sorting a copy), for experiments that keep raw samples.
func Percentiles(samples []float64, qs ...float64) []float64 {
	if len(samples) == 0 {
		return make([]float64, len(qs))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		idx := int(math.Ceil(q*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		out[i] = s[idx]
	}
	return out
}

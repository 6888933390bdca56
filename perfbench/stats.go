package main

import (
	"fmt"
	"math"
	"sort"

	"dragonfly/internal/stats"
)

// minBeyond is the number of samples a tail percentile needs above it
// before it is reported: with fewer, one outlier decides the value.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it may be reported. The median is always reportable when
// there is at least one sample; a tail percentile (q > 0.5) only when at
// least minBeyond samples lie strictly above its rank.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if q > 0.5 && n-1-idx < minBeyond {
		return 0, false
	}
	return s[idx], true
}

// metric is one reported number. Samples is the count it was computed
// from (0 for exact counts and ratios of totals); Omitted marks a
// percentile withheld by the minBeyond rule or a metric the run could
// not measure, reported as 0 in the JSON line.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	Omitted string
}

// results collects a run's metrics in report order. extras are printed
// in the human-readable lines only: metrics that are not declared for
// every workload.
type results struct {
	list   []metric
	extras []metric
}

func (r *results) add(name string, v float64, unit string, samples int) {
	r.list = append(r.list, metric{Name: name, Value: v, Unit: unit, Samples: samples})
}

// addPercentile reports the q-quantile of xs under the minBeyond rule.
func (r *results) addPercentile(name string, xs []float64, q float64, unit string) {
	if q == 0.5 {
		if len(xs) == 0 {
			r.omit(name, unit, "no samples")
			return
		}
		r.add(name, stats.Median(xs), unit, len(xs))
		return
	}
	v, ok := percentile(xs, q)
	if !ok {
		r.list = append(r.list, metric{Name: name, Unit: unit, Samples: len(xs),
			Omitted: fmt.Sprintf("fewer than %d of %d samples beyond p%g", minBeyond, len(xs), q*100)})
		return
	}
	r.add(name, v, unit, len(xs))
}

// extra reports the q-quantile of xs as a human-readable line only,
// and only when the minBeyond rule allows it.
func (r *results) extra(name string, xs []float64, q float64, unit string) {
	var x results
	x.addPercentile(name, xs, q, unit)
	r.extras = append(r.extras, x.list...)
}

// omit records a metric the run cannot measure, with the reason.
func (r *results) omit(name, unit, why string) {
	r.list = append(r.list, metric{Name: name, Unit: unit, Omitted: why})
}

func (r *results) get(name string) (metric, bool) {
	for _, m := range r.list {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

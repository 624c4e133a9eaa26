package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// samples is a list of measurements in one unit.
type samples []float64

// pct returns the p-quantile (nearest rank) and whether at least
// minBeyond samples lie above the one returned.
func (s samples) pct(p float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := min(int(p*float64(len(c))), len(c)-1)
	return c[i], len(c)-1-i >= minBeyond
}

// median returns the middle value (the mean of the two middle ones for
// an even count), 0 for no samples.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind it, for the human summary
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, n: n}
}

// setPct records a percentile, or returns an error naming the metric
// when too few samples lie beyond it.
func (m metrics) setPct(name string, s samples, p float64, unit string) error {
	v, ok := s.pct(p)
	if !ok {
		return fmt.Errorf("%s: %d samples, need %d beyond the %.0fth percentile", name, len(s), minBeyond, p*100)
	}
	m.set(name, v, unit, len(s))
	return nil
}

// setLayerPct records a per-layer percentile, or 0 when the layer was
// idle or too rarely seen on this workload.
func (m metrics) setLayerPct(name string, s samples, p float64, unit string) {
	v, ok := s.pct(p)
	if !ok {
		v = 0
	}
	m.set(name, v, unit, len(s))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

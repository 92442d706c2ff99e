package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, with its label. Too few samples for any
// percentile yield the maximum, labelled "max".
func tail(xs []float64) (string, float64) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(xs))*(1-p.q) >= 10 {
			return p.label, quantile(xs, p.q)
		}
	}
	return "max", quantile(xs, 1)
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// readMetric reads one uint64 runtime metric without stopping the world.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapPeak samples the live heap (bytes in heap objects) on a ticker
// until stopped and keeps the maximum.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func startHeapPeak(every time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		peak := readMetric("/memory/classes/heap/objects:bytes")
		for {
			select {
			case <-h.stop:
				if v := readMetric("/memory/classes/heap/objects:bytes"); v > peak {
					peak = v
				}
				h.done <- peak
				return
			case <-tick.C:
				if v := readMetric("/memory/classes/heap/objects:bytes"); v > peak {
					peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit and returns the
// peak in MB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}

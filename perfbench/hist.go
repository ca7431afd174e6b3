package main

import "math"

// latHist is a fixed-size log-bucketed histogram of latencies in µs.
// The workloads record every measured operation in one, not in a
// growing slice, so the benchmark's own memory does not grow with the
// program's speed and cannot move live_heap_mb. Bucket i covers
// [histMin·histGrowth^i, histMin·histGrowth^(i+1)), so a quantile read
// from it is within half a bucket (0.25 %) of the exact sample.
type latHist struct {
	counts [histBuckets]uint32
	n      int
	sum    float64
}

const (
	histMin     = 0.01  // µs
	histGrowth  = 1.005 // ratio between bucket bounds
	histBuckets = 5100  // reaches histMin·histGrowth^5100 ≈ 1.2e9 µs
)

var histLogGrowth = math.Log(histGrowth)

func (h *latHist) add(us float64) {
	i := 0
	if us > histMin {
		i = min(int(math.Log(us/histMin)/histLogGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
	h.sum += us
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile as the geometric middle of the bucket
// holding the sample of that rank; NaN when the histogram is empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(h.n)))
	rank = max(rank, 1)
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return histMin * math.Pow(histGrowth, float64(i)+0.5)
		}
	}
	return math.NaN()
}

func (h *latHist) mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

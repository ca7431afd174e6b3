package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// NumLatencyBuckets is the fixed bucket count of Histogram: bucket i
// counts observations whose nanosecond value has bit-length i, i.e.
// durations in [2^(i-1), 2^i) ns — HDR-style exponential buckets with
// no configuration and no allocation on the observe path.
const NumLatencyBuckets = 40

// Histogram is a fixed-bucket latency histogram safe for concurrent
// use. The zero value is ready.
type Histogram struct {
	count   atomic.Uint64
	sumNs   atomic.Uint64
	maxNs   atomic.Uint64
	buckets [NumLatencyBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	ix := bits.Len64(ns)
	if ix >= NumLatencyBuckets {
		ix = NumLatencyBuckets - 1
	}
	h.buckets[ix].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Bucket is one non-empty histogram bucket: Count observations at most
// UpperNs nanoseconds (and above the previous bucket's bound).
type Bucket struct {
	UpperNs uint64 `json:"le_ns"`
	Count   uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time JSON-ready histogram view.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	SumNs   uint64   `json:"sum_ns"`
	MaxNs   uint64   `json:"max_ns"`
	MeanNs  float64  `json:"mean_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram. Counters are read one by one, so a
// snapshot taken while observations are in flight may be off by the
// in-flight observations; it is exact when quiescent. Observe updates
// the bucket before the total, so a racing read can see more bucketed
// observations than Count — Snapshot reconciles by clamping Count up
// to the bucket sum, keeping the invariant bucketSum <= Count that
// the exposition format (and Quantile) relies on.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumNs: h.sumNs.Load(),
		MaxNs: h.maxNs.Load(),
	}
	var bucketSum uint64
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{UpperNs: 1<<uint(i) - 1, Count: n})
			bucketSum += n
		}
	}
	if bucketSum > s.Count {
		s.Count = bucketSum
	}
	if s.Count > 0 {
		s.MeanNs = float64(s.SumNs) / float64(s.Count)
	}
	return s
}

// Quantile estimates the q-th quantile observation in nanoseconds.
// The bucket holding the rank is located by cumulative count; within
// it the estimate interpolates linearly across the bucket's value
// range [2^(i-1), 2^i), assuming observations are spread uniformly
// inside the bucket. Returning the raw bucket upper bound instead —
// the previous behavior — collapses every quantile that lands in a
// populated bucket onto the same power-of-two boundary (1048575,
// 2097151, ...), which made E15's p50 and p90 indistinguishable
// whenever they shared a bucket. The estimate is clamped to the
// observed maximum; q outside (0, 1] is clamped; an empty snapshot
// reports 0.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum < rank {
			continue
		}
		if b.UpperNs == 0 {
			// Bucket 0 holds only zero-duration observations.
			return 0
		}
		lo := (b.UpperNs + 1) / 2 // the bucket's lower bound, 2^(i-1)
		hi := b.UpperNs
		if s.MaxNs > 0 && hi > s.MaxNs {
			hi = s.MaxNs
		}
		if hi <= lo {
			return hi
		}
		// 1-based position of the rank among this bucket's Count
		// observations: position Count maps to hi, position 0 to lo.
		pos := rank - (cum - b.Count)
		return lo + uint64(float64(hi-lo)*float64(pos)/float64(b.Count))
	}
	return s.MaxNs
}

// TriggerMetrics are the per-(class, trigger) counters. All update
// methods are atomic, allocation-free, and nil-safe (a nil receiver is
// a no-op), so call sites need no guards.
type TriggerMetrics struct {
	Class   string
	Trigger string

	firings    atomic.Uint64
	steps      atomic.Uint64
	maskEvals  atomic.Uint64
	maskFalse  atomic.Uint64
	actionErrs atomic.Uint64
	latency    Histogram
}

// Step counts one automaton transition.
func (m *TriggerMetrics) Step() {
	if m != nil {
		m.steps.Add(1)
	}
}

// MaskEval counts one mask evaluation and its verdict.
func (m *TriggerMetrics) MaskEval(ok bool) {
	if m == nil {
		return
	}
	m.maskEvals.Add(1)
	if !ok {
		m.maskFalse.Add(1)
	}
}

// MaskEvalN counts evals mask evaluations of which falses were false —
// one trigger's evaluations for one happening, counted at once.
func (m *TriggerMetrics) MaskEvalN(evals, falses uint64) {
	if m == nil || evals == 0 {
		return
	}
	m.maskEvals.Add(evals)
	if falses > 0 {
		m.maskFalse.Add(falses)
	}
}

// Fire counts one firing with its action latency and error outcome.
func (m *TriggerMetrics) Fire(d time.Duration, err error) {
	if m == nil {
		return
	}
	m.firings.Add(1)
	if err != nil {
		m.actionErrs.Add(1)
	}
	m.latency.Observe(d)
}

// Firings returns the firing count.
func (m *TriggerMetrics) Firings() uint64 {
	if m == nil {
		return 0
	}
	return m.firings.Load()
}

// ClassMetrics are the per-class counters.
type ClassMetrics struct {
	Class string

	happenings atomic.Uint64
}

// Happening counts one happening posted to an object of the class.
func (m *ClassMetrics) Happening() {
	if m != nil {
		m.happenings.Add(1)
	}
}

// HappeningN counts n happenings at once (the batch and timer-tick flush).
func (m *ClassMetrics) HappeningN(n uint64) {
	if m != nil && n > 0 {
		m.happenings.Add(n)
	}
}

// TriggerSnapshot is a JSON-ready per-trigger metrics view.
type TriggerSnapshot struct {
	Class        string            `json:"class"`
	Trigger      string            `json:"trigger"`
	Firings      uint64            `json:"firings"`
	Steps        uint64            `json:"steps"`
	MaskEvals    uint64            `json:"mask_evals"`
	MaskFalse    uint64            `json:"mask_false"`
	ActionErrors uint64            `json:"action_errors"`
	Latency      HistogramSnapshot `json:"latency"`
}

// ClassSnapshot is a JSON-ready per-class metrics view; the trigger
// counters are sums over the class's triggers.
type ClassSnapshot struct {
	Class      string `json:"class"`
	Happenings uint64 `json:"happenings"`
	Firings    uint64 `json:"firings"`
	Steps      uint64 `json:"steps"`
	MaskEvals  uint64 `json:"mask_evals"`
}

// Snapshot is the full registry view.
type Snapshot struct {
	Triggers []TriggerSnapshot `json:"triggers"`
	Classes  []ClassSnapshot   `json:"classes"`
}

// Canonical returns a copy of the snapshot with every wall-clock-
// dependent field (the action-latency histograms) zeroed, leaving
// only counters that are a pure function of the executed schedule.
// Deterministic replays (internal/sim) compare Canonical snapshots
// across runs: two executions of the same seed must agree on every
// remaining field even though their action latencies differ.
func (s Snapshot) Canonical() Snapshot {
	out := Snapshot{
		Triggers: append([]TriggerSnapshot(nil), s.Triggers...),
		Classes:  append([]ClassSnapshot(nil), s.Classes...),
	}
	for i := range out.Triggers {
		out.Triggers[i].Latency = HistogramSnapshot{}
	}
	return out
}

// Registry holds the metrics of every registered class and trigger.
// Lookup is paid once at class-registration time: the engine caches
// the returned pointers, so hot-path updates are plain atomic adds.
type Registry struct {
	mu       sync.Mutex
	triggers map[[2]string]*TriggerMetrics
	classes  map[string]*ClassMetrics
	torder   [][2]string
	corder   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		triggers: map[[2]string]*TriggerMetrics{},
		classes:  map[string]*ClassMetrics{},
	}
}

// Trigger returns (creating if needed) the metrics of class.trigger.
func (r *Registry) Trigger(class, trigger string) *TriggerMetrics {
	key := [2]string{class, trigger}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.triggers[key]
	if !ok {
		m = &TriggerMetrics{Class: class, Trigger: trigger}
		r.triggers[key] = m
		r.torder = append(r.torder, key)
	}
	return m
}

// Class returns (creating if needed) the metrics of a class.
func (r *Registry) Class(class string) *ClassMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.classes[class]
	if !ok {
		m = &ClassMetrics{Class: class}
		r.classes[class] = m
		r.corder = append(r.corder, class)
	}
	return m
}

// Snapshot captures every counter in registration order. Counters are
// read individually (not under a global pause), so concurrent updates
// may make cross-counter arithmetic off by the in-flight operations;
// sums are exact when the engine is quiescent.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	torder := append([][2]string(nil), r.torder...)
	corder := append([]string(nil), r.corder...)
	triggers := make([]*TriggerMetrics, len(torder))
	classes := make([]*ClassMetrics, len(corder))
	for i, k := range torder {
		triggers[i] = r.triggers[k]
	}
	for i, k := range corder {
		classes[i] = r.classes[k]
	}
	r.mu.Unlock()

	snap := Snapshot{}
	perClass := map[string]*ClassSnapshot{}
	for i, c := range corder {
		snap.Classes = append(snap.Classes, ClassSnapshot{
			Class:      c,
			Happenings: classes[i].happenings.Load(),
		})
		perClass[c] = &snap.Classes[len(snap.Classes)-1]
	}
	for _, m := range triggers {
		ts := TriggerSnapshot{
			Class:        m.Class,
			Trigger:      m.Trigger,
			Firings:      m.firings.Load(),
			Steps:        m.steps.Load(),
			MaskEvals:    m.maskEvals.Load(),
			MaskFalse:    m.maskFalse.Load(),
			ActionErrors: m.actionErrs.Load(),
			Latency:      m.latency.Snapshot(),
		}
		snap.Triggers = append(snap.Triggers, ts)
		if cs := perClass[m.Class]; cs != nil {
			cs.Firings += ts.Firings
			cs.Steps += ts.Steps
			cs.MaskEvals += ts.MaskEvals
		}
	}
	return snap
}

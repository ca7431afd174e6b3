package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"ode"
)

// spanName identifies the public entry point a span times. Every span
// is recorded by the benchmark around its own call into the engine.
type spanName uint8

const (
	spTx        spanName = iota // Database.Transact or TransactOn
	spCall                      // Tx.Call
	spBatch                     // Tx.PostBatch
	spPump                      // Deliverer.Pump
	spPoll                      // Subscription.Poll
	spAdvance                   // Database.Advance
	spPartBatch                 // partitioned Database.PostBatch
	spRelay                     // Database.RelayCall
	spDrain                     // Database.Drain
	spOp                        // one operation of a client loop, the root of its spans
)

var spanNames = [...]string{
	spTx:        "Database.Transact",
	spCall:      "Tx.Call",
	spBatch:     "Tx.PostBatch",
	spPump:      "Deliverer.Pump",
	spPoll:      "Subscription.Poll",
	spAdvance:   "Database.Advance",
	spPartBatch: "Database.PostBatch",
	spRelay:     "Database.RelayCall",
	spDrain:     "Database.Drain",
	spOp:        "operation",
}

// spanLayer charges each span's self time to a layer. A transaction
// span's self time is everything Transact does outside the engine
// calls of its body — begin, the tcomplete fixpoint, LogCommit, the
// WAL write and sync, and the epoch publish — so it is the commit
// layer's. An operation span's self time is the benchmark's own code
// between the calls it times.
var spanLayer = [...]string{
	spTx:        "commit",
	spCall:      "engine",
	spBatch:     "engine",
	spPump:      "egress",
	spPoll:      "egress",
	spAdvance:   "clock",
	spPartBatch: "part",
	spRelay:     "part",
	spDrain:     "part",
	spOp:        "bench",
}

// span is one timed call: start and end are nanoseconds since the
// measured phase began, parent indexes the enclosing span of the same
// goroutine (-1 for none), and tx is the transaction id the spans of
// one transaction share (0 outside transactions).
type span struct {
	parent int32
	name   spanName
	tx     uint64
	start  int64
	end    int64
}

// recorder keeps one goroutine's spans in memory. A nil recorder
// records nothing, which is how untraced operations run.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name spanName, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{parent: parent, name: name, start: int64(time.Since(r.t0)), end: -1})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r != nil && i >= 0 {
		r.spans[i].end = int64(time.Since(r.t0))
	}
}

func (r *recorder) setTx(i int32, tx uint64) {
	if r != nil && i >= 0 {
		r.spans[i].tx = tx
	}
}

// childTime returns the summed duration of span i's direct children.
func (r *recorder) childTime(i int32) int64 {
	var t int64
	for _, s := range r.spans[i+1:] {
		if s.parent == i {
			t += s.end - s.start
		}
	}
	return t
}

type spanSet struct {
	owner string
	spans []span
}

// layerSplit is the per-layer view of the recorded spans.
type layerSplit struct {
	self     map[string]time.Duration   // self time per layer
	selfBy   map[spanName]time.Duration // self time per entry point
	calls    map[spanName]int           // spans per entry point
	txN      int                        // transaction spans
	txDur    time.Duration              // summed duration of the transaction spans
	txCommit latHist                    // µs of commit self time per transaction
	ops      int                        // operation spans
	opDur    time.Duration              // summed duration of the operation spans
}

// split derives self times: a span's self time is its duration minus
// the durations of its direct children. Children of one span never
// overlap, because a goroutine's spans nest.
func split(sets []spanSet) layerSplit {
	ls := layerSplit{
		self:   map[string]time.Duration{},
		calls:  map[spanName]int{},
		selfBy: map[spanName]time.Duration{},
	}
	for _, set := range sets {
		self := make([]int64, len(set.spans))
		for i, s := range set.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		for i, s := range set.spans {
			ls.self[spanLayer[s.name]] += time.Duration(self[i])
			ls.selfBy[s.name] += time.Duration(self[i])
			ls.calls[s.name]++
			switch s.name {
			case spTx:
				ls.txN++
				ls.txDur += time.Duration(s.end - s.start)
				ls.txCommit.add(float64(self[i]) / 1e3)
			case spOp:
				ls.ops++
				ls.opDur += time.Duration(s.end - s.start)
			}
		}
	}
	return ls
}

// phase is the measured phase's clock. With tracing on it traces half
// of the operations (see traced).
type phase struct {
	t0      time.Time
	cpu0    time.Duration // process CPU time at t0
	end     time.Time
	trace   bool
	measure bool // false for the warm-up, whose operations are not sampled
	ops     int  // non-zero: stop after this many operations (none if negative) instead of at end
}

func newPhase(cfg config) *phase {
	d := time.Duration(cfg.seconds * float64(time.Second))
	now := time.Now()
	return &phase{t0: now, cpu0: cpuTime(), end: now.Add(d), trace: cfg.trace, measure: true, ops: cfg.ops}
}

// elapsed returns the wall and the process CPU time since the phase
// began.
func (p *phase) elapsed() (wall, cpu time.Duration) {
	return time.Since(p.t0), cpuTime() - p.cpu0
}

// warmupShare is the length of the unmeasured warm-up that precedes
// the measured phase, as a share of the measured phase: it fills the
// caches, builds the posting plans and lets the heap reach its working
// size. Its operations count in the correctness checks.
const warmupShare = 0.1

func newWarmup(cfg config) *phase {
	now := time.Now()
	if cfg.ops > 0 {
		return &phase{t0: now, end: now, ops: -1}
	}
	return &phase{t0: now, end: now.Add(time.Duration(warmupShare * cfg.seconds * float64(time.Second)))}
}

// traced reports whether a goroutine's operation number i is traced.
// With tracing on, a hash of i picks half the operations, so traced
// and untraced operations interleave finely and see the same host
// conditions — the fsync latency of bank-durable drifts within
// seconds — while no period of a workload's operation mix lines up
// with the choice. The untraced ones are the base the traced layer
// split must sum back to, and the difference is the tracing overhead.
func (p *phase) traced(i int) bool {
	if !p.trace {
		return false
	}
	x := uint64(i) + 0x9E3779B97F4A7C15 // splitmix64
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return (x^x>>31)&1 == 1
}

// over reports whether an operation starting at now, after done
// operations, lies past the end of the phase.
func (p *phase) over(now time.Time, done int) bool {
	if p.ops != 0 {
		return done >= p.ops
	}
	return !now.Before(p.end)
}

// opSamples keeps, per operation kind, the wall time of each untraced
// operation of the measured phase and the summed time of the layer
// spans under each traced one, in µs. Kinds keep operations of
// different cost (a tick, a batch, a single call) apart, so that the
// split is compared kind by kind.
type opSamples struct {
	untraced, traced []latHist
}

func newOpSamples(kinds int) *opSamples {
	return &opSamples{make([]latHist, kinds), make([]latHist, kinds)}
}

// done records an operation of the given kind that started at start;
// op is its operation span, which r has ended (r is nil untraced).
func (o *opSamples) done(ph *phase, r *recorder, op int32, kind int, start time.Time) {
	switch {
	case !ph.measure:
	case r == nil:
		o.untraced[kind].add(us(time.Since(start)))
	default:
		o.traced[kind].add(us(time.Duration(r.childTime(op))))
	}
}

func (o *opSamples) merge(p *opSamples) {
	for k := range o.untraced {
		o.untraced[k].merge(&p.untraced[k])
		o.traced[k].merge(&p.traced[k])
	}
}

// gcSample reads the runtime counters around the measured phase.
type gcSample struct {
	cycles  uint64
	gcCPU   float64
	cpu     float64
	mallocs uint64
}

var gcMetrics = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGC() gcSample {
	metrics.Read(gcMetrics)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSample{
		cycles:  gcMetrics[0].Value.Uint64(),
		gcCPU:   gcMetrics[1].Value.Float64(),
		cpu:     gcMetrics[2].Value.Float64(),
		mallocs: ms.Mallocs,
	}
}

// endGC closes the measured phase: it forces a collection, which also
// brings the runtime's CPU accounting up to date, and returns the
// counters and the live heap in MB.
func endGC() (gcSample, float64) {
	runtime.GC()
	s := readGC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return s, float64(ms.HeapAlloc) / 1e6
}

// addEngineCounts reports the measured phase's engine work per
// happening, from the engine's counters, and the gc layer.
func addEngineCounts(rep *report, d ode.Stats, before, after gcSample) {
	h := float64(d.Happenings)
	rep.add("engine.steps_per_happening", ratio(float64(d.Steps), h), "ratio", int(h), "happenings")
	rep.add("engine.mask_evals_per_happening", ratio(float64(d.MaskEvals), h), "ratio", int(h), "happenings")
	rep.add("engine.firings_per_happening", ratio(float64(d.Firings), h), "ratio", int(h), "happenings")
	rep.add("engine.allocs_per_happening", ratio(float64(after.mallocs-before.mallocs), h), "allocs", int(h), "happenings")
	rep.add("gc.cycles", ratio(1e6*float64(after.cycles-before.cycles), h), "cycles/Mhap", int(h), "happenings")
	rep.add("gc.cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.cpu-before.cpu), "ratio", 0, "")
}

// addFeedRecords reports the firing records the feed retains per
// thousand happenings since set-up, so that a faster engine, which
// fills an unbounded feed faster, does not read as a regression.
func addFeedRecords(rep *report, retained uint64, c counts) {
	rep.add("egress.feed_records", ratio(1e3*float64(retained), float64(c.Happenings)), "records/khap",
		int(c.Happenings), "happenings")
}

// addRates reports the measured phase's throughputs. tx_per_s and
// happenings_per_s divide by the process CPU time of the phase, all
// threads, not by its wall time: the host this benchmark was built on
// loses a varying share of its CPUs to other tenants, which moves
// wall-clock rates by a quarter from one minute to the next, while the
// CPU the process spends on the same work stays put. The wall-clock
// rates are printed beside them.
func addRates(rep *report, tx int, happenings uint64, wall, cpuTime time.Duration) {
	cpu := cpuTime.Seconds()
	rep.add("tx_per_s", ratio(float64(tx), cpu), "1/s", tx, "transactions (per process CPU second)")
	rep.add("happenings_per_s", ratio(float64(happenings), cpu), "1/s", int(happenings), "happenings (per process CPU second)")
	rep.add("tx_per_wall_s", float64(tx)/wall.Seconds(), "1/s", tx, "transactions")
	rep.add("happenings_per_wall_s", float64(happenings)/wall.Seconds(), "1/s", int(happenings), "happenings")
	rep.add("cpu_per_wall", ratio(cpu, wall.Seconds()), "ratio", 0, "")
}

// sumBackTolerance is how far, as a share, the traced layer self times
// of an operation may sit from the untraced operations' time of the
// same run and still count as summing back to it.
const sumBackTolerance = 0.15

// addSplit reports the per-layer split of the traced operations and
// checks that it sums back to the untraced ones. The layer self times
// under a traced operation — every span under it, so poll, advance,
// relay and drain spans outside the transactions as well — add up to
// the duration of its direct child spans. For each kind of operation
// the median of that sum is set against the median wall time of the
// untraced operations of the kind, and the kinds are weighted by their
// traced counts. Time the spans miss lowers the ratio; tracing overhead
// raises it. Medians, because a collection or a slow fsync lands on
// whichever operation is running and a few such operations move a
// mean by more than the overhead being checked. Spans of a helper
// goroutine (the egress pump of bank-durable) run beside the
// operations and are reported, not summed.
func addSplit(rep *report, ls layerSplit, ops *opSamples) {
	n := ls.txN
	rep.add("commit.us_p50", ls.txCommit.quantile(0.5), "us", n, "transactions")
	rep.add("commit.us_p99", ls.txCommit.quantile(0.99), "us", n, "transactions")
	rep.add("commit.share", ratio(ls.txCommit.sum, us(ls.txDur)), "ratio", n, "transactions")
	if c := ls.calls[spCall]; c > 0 {
		rep.add("engine.call_ns", float64(ls.selfBy[spCall])/float64(c), "ns", c, "calls")
	}
	for _, layer := range []string{"engine", "commit", "egress", "clock", "part", "bench"} {
		if d, ok := ls.self[layer]; ok {
			rep.add("self."+layer+"_ms", float64(d)/1e6, "ms", 0, "")
		}
	}
	var layers, base, untracedSum float64
	traced, untraced := 0, 0
	for k := range ops.traced {
		t, u := &ops.traced[k], &ops.untraced[k]
		untraced += u.n
		untracedSum += u.sum
		if t.n == 0 || u.n == 0 {
			continue
		}
		traced += t.n
		layers += float64(t.n) * t.quantile(0.5)
		base += float64(t.n) * u.quantile(0.5)
	}
	if traced == 0 {
		rep.check(false, "traced run has no kind of operation both traced and untraced; the split cannot be checked")
		return
	}
	sum := layers / base
	rep.add("trace.sum_back", sum, "ratio", traced, "traced operations")
	rep.add("trace.bench_share", ratio(float64(ls.self["bench"]), float64(ls.opDur)), "ratio", ls.ops, "traced operations")
	rep.add("trace.overhead_us_per_op", us(ls.opDur)/float64(ls.ops)-untracedSum/float64(untraced), "us", untraced, "untraced operations")
	rep.check(math.Abs(sum-1) <= sumBackTolerance,
		"traced layer self times sum to %.3f of the untraced operation time, outside 1 ± %.2f", sum, sumBackTolerance)
}

// setupTimes are the medians over a run's set-ups.
type setupTimes struct {
	reps      int
	cpu, wall float64 // s
}

// add reports setup_s as CPU time: the host this benchmark was built on
// loses a varying share of its CPUs to other tenants, which moves wall
// time by up to 2× from one minute to the next, while the CPU time the
// process spends on the same work stays put. Wall time is printed
// beside it.
func (t setupTimes) add(rep *report) {
	rep.add("setup_s", t.cpu, "s", t.reps, "setups (process CPU time)")
	rep.add("setup_wall_s", t.wall, "s", t.reps, "setups")
}

// medianSetup runs setup reps times and returns the value built by the
// last run and the median CPU and wall time of a set-up; earlier
// values are released with discard.
func medianSetup[T any](reps int, setup func(i int) (T, error), discard func(T)) (T, setupTimes, error) {
	var keep T
	cpu := make([]float64, 0, reps)
	wall := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		c0, w0 := cpuTime(), time.Now()
		v, err := setup(i)
		if err != nil {
			return keep, setupTimes{}, err
		}
		wall = append(wall, time.Since(w0).Seconds())
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		if i < reps-1 {
			// Collect the discarded database now, so that its garbage
			// is not collected during the next, timed set-up.
			discard(v)
			runtime.GC()
		} else {
			keep = v
		}
	}
	return keep, setupTimes{reps, median(cpu), median(wall)}, nil
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only a bad argument fails
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

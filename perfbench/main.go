// Command perfbench is the benchmark of record for the ode engine. It
// drives three workloads through the public ode API, checks each run's
// output against a reference computed from the generated inputs, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object holding the metrics BENCHMARK.json declares
// for the mode: the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1.
//
//	perfbench -workload bank-durable -seed 1 -seconds 10 -trace 0
//
// The process exits 1 when a correctness check fails and 2 when the
// benchmark itself cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ode"
)

// config is one run's settings. ops > 0 replaces the time bound with
// an exact operation count, which the self-test uses to compare two
// runs of the same seed; the fault fields plant one defect each.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	data     string
	ops      int
	scale    int // divides the data sizes; 1 for the benchmark of record

	dropRecord  bool          // the receiver acknowledges one firing without applying it
	skipReading bool          // one generated reading is never posted
	loseRelay   bool          // one relayed deposit is never sent
	untimed     time.Duration // every sensor-fleet operation also spends this long outside the timed calls
}

// metric is one named measurement. n is the sample count behind a
// percentile or the base count of a ratio, described by base.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	base  string
}

// report is what a workload run hands back to main.
type report struct {
	workload  string
	attempted int
	failed    int
	errs      []string // failed correctness checks
	metrics   []metric
	counts    counts
	spans     []spanSet
}

// counts are the totals that two runs of one seed over one operation
// count must reproduce exactly.
type counts struct {
	Happenings  uint64
	Steps       uint64
	Firings     uint64
	FeedRecords uint64
}

// runCounts returns the totals since set-up ended, warm-up included.
func runCounts(after, setup ode.Stats, feedRecords uint64) counts {
	d := ode.StatsDelta(after, setup)
	return counts{d.Happenings, d.Steps, d.Firings, feedRecords}
}

// add records a metric; a value that could not be measured (no
// samples) is left out, so that a declared metric missing from a run
// stops the run instead of printing NaN.
func (r *report) add(name string, value float64, unit string, n int, base string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	r.metrics = append(r.metrics, metric{name, value, unit, n, base})
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

var workloads = map[string]func(config) (*report, error){
	"bank-durable":     runDurable,
	"sensor-fleet":     runSensor,
	"bank-partitioned": runPartitioned,
}

func main() {
	var cfg config
	var trace int
	var spec string
	flag.StringVar(&cfg.workload, "workload", "", "bank-durable, sensor-fleet or bank-partitioned")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.data, "data", ".bench_build/data", "directory for database files and span dumps")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark description naming the reported metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	cfg.trace = trace == 1
	cfg.scale = 1

	declared, err := readSpec(spec, cfg.trace)
	if err != nil {
		fatal(err)
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	printTable(rep)
	if cfg.trace {
		if err := writeSpans(cfg, rep); err != nil {
			fatal(err)
		}
	}
	out := map[string]any{}
	for _, d := range declared {
		m, ok := rep.get(d.Name)
		if !ok {
			fatal(fmt.Errorf("workload %s does not report declared metric %s", rep.workload, d.Name))
		}
		if m.unit != d.Unit {
			fatal(fmt.Errorf("metric %s is measured in %s but declared in %s", d.Name, m.unit, d.Unit))
		}
		out[d.Name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.errs) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if len(rep.errs) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// declaredMetric is a metric as BENCHMARK.json declares it.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readSpec returns the metrics BENCHMARK.json declares for the mode,
// so that the result line and the description cannot drift apart.
func readSpec(path string, trace bool) ([]declaredMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark description: %w", err)
	}
	var spec struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if trace {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// printTable prints every metric the run measured, one per line, with
// its unit and the sample count or base behind it, then the outcome of
// each correctness check.
func printTable(rep *report) {
	fmt.Printf("# workload %s: %d attempted, %d failed\n", rep.workload, rep.attempted, rep.failed)
	fmt.Printf("%-36s %16s  %-8s %s\n", "metric", "value", "unit", "samples / base")
	for _, m := range rep.metrics {
		base := ""
		if m.base != "" {
			base = fmt.Sprintf("%d %s", m.n, m.base)
		}
		fmt.Printf("%-36s %16.6g  %-8s %s\n", m.name, m.value, m.unit, base)
	}
	fmt.Printf("# counts: happenings=%d steps=%d firings=%d feed_records=%d\n",
		rep.counts.Happenings, rep.counts.Steps, rep.counts.Firings, rep.counts.FeedRecords)
	if len(rep.errs) == 0 {
		fmt.Println("# checks: all passed")
	}
	for _, e := range rep.errs {
		fmt.Println("# check FAILED:", e)
	}
}

// writeSpans dumps the recorded spans as JSON lines, one span each.
func writeSpans(cfg config, rep *report) error {
	dir := filepath.Join(cfg.data, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var sb strings.Builder
	for _, set := range rep.spans {
		for i, s := range set.spans {
			fmt.Fprintf(&sb, `{"goroutine":%q,"id":%d,"parent":%d,"tx":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				set.owner, i, s.parent, s.tx, spanNames[s.name], s.start, s.end)
			if sb.Len() > 1<<20 {
				if _, err := f.WriteString(sb.String()); err != nil {
					f.Close()
					return err
				}
				sb.Reset()
			}
		}
	}
	if _, err := f.WriteString(sb.String()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the median of the few set-up or registration times
// of a run; xs is sorted in place. Percentiles of measured operations
// come from latHist.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// us converts a duration to microseconds as a float.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

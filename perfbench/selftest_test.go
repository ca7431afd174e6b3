package main

import (
	"strings"
	"testing"
	"time"
)

// The self-test runs each workload at a reduced size for an exact
// number of operations, so that it finishes in seconds and two runs of
// one seed do the same work.
func testConfig(t *testing.T, workload string) config {
	ops := map[string]int{"bank-durable": 200, "sensor-fleet": 80, "bank-partitioned": 3000}[workload]
	return config{workload: workload, seed: 7, seconds: 1, data: t.TempDir(), ops: ops, scale: 8}
}

func runOrFail(t *testing.T, cfg config) *report {
	t.Helper()
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return rep
}

// TestChecksPassAndCountsRepeat runs every workload twice with one
// seed: both runs pass every correctness check and agree exactly on
// happenings, steps, firings and feed records.
func TestChecksPassAndCountsRepeat(t *testing.T) {
	for w := range workloads {
		t.Run(w, func(t *testing.T) {
			a := runOrFail(t, testConfig(t, w))
			b := runOrFail(t, testConfig(t, w))
			for _, rep := range []*report{a, b} {
				if len(rep.errs) > 0 {
					t.Fatalf("checks failed on an unfaulted run: %v", rep.errs)
				}
			}
			if a.counts != b.counts {
				t.Fatalf("same seed, different counts: %+v vs %+v", a.counts, b.counts)
			}
			if a.counts.Firings == 0 || a.counts.FeedRecords == 0 {
				t.Fatalf("run fired nothing, so the firing checks are vacuous: %+v", a.counts)
			}
		})
	}
}

// TestChecksRejectPlantedFaults plants one defect per workload and
// expects the workload's correctness checks to reject the run.
func TestChecksRejectPlantedFaults(t *testing.T) {
	cases := []struct {
		workload, fault string
		plant           func(*config)
	}{
		{"bank-durable", "receiver drops a record", func(c *config) { c.dropRecord = true }},
		{"sensor-fleet", "a reading is skipped", func(c *config) { c.skipReading = true }},
		{"bank-partitioned", "a relay is lost", func(c *config) { c.loseRelay = true }},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			cfg := testConfig(t, c.workload)
			c.plant(&cfg)
			rep := runOrFail(t, cfg)
			if len(rep.errs) == 0 {
				t.Fatalf("planted fault %q passed every check", c.fault)
			}
			t.Logf("%s rejected: %v", c.fault, rep.errs)
		})
	}
}

// TestSumBackRejectsUntimedWork runs sensor-fleet traced with a planted
// gap: every operation spends time that no span covers, as a layer
// call the spans missed would. The traced layer self times then fall
// short of the untraced operation time and the split check fails.
func TestSumBackRejectsUntimedWork(t *testing.T) {
	cfg := testConfig(t, "sensor-fleet")
	cfg.ops, cfg.trace, cfg.untimed = 0, true, 2*time.Millisecond
	rep := runOrFail(t, cfg)
	for _, e := range rep.errs {
		if strings.Contains(e, "sum to") {
			t.Logf("untimed work rejected: %s", e)
			return
		}
	}
	t.Fatalf("untimed work passed the sum-back check: %v", rep.errs)
}

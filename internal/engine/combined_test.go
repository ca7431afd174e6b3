package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// combinedRun is everything the combined-vs-separate comparisons pin.
type combinedRun struct {
	fires    []string
	balances []int64
	states   []string // per object: its activation records, rendered
}

// combinedFixture builds the class and runs a seeded workload — method
// calls, aborted transactions and clock advances that drive a timer
// cohort — once, with per-trigger automata or with footnote-5 combined
// monitoring. mode "call" issues one tx.Call per call; "batch" posts
// each transaction's calls as one Batch.
func combinedFixture(t *testing.T, seed int64, useCombined bool, mode string) combinedRun {
	t.Helper()
	var fires []string
	cls := &schema.Class{
		Name: "acct",
		Fields: []schema.Field{
			{Name: "balance", Kind: value.KindInt, Default: value.Int(1000)},
		},
		Methods: []schema.Method{
			{Name: "deposit", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
			{Name: "withdraw", Params: []schema.Param{{Name: "n", Kind: value.KindInt}}, Mode: schema.ModeUpdate},
		},
		Triggers: []schema.Trigger{
			{Name: "Large", Perpetual: true, Event: "after withdraw(n) && n > 50"},
			{Name: "Seq", Perpetual: true, Event: "after deposit; after withdraw"},
			{Name: "Third", Perpetual: true, Event: "every 3 (after access)"},
			{Name: "Dep", Perpetual: true, Event: "fa(after withdraw, after tcommit, after tbegin)"},
			{Name: "Tick", Perpetual: true, Event: "relative(after deposit, every time(M=10))"},
		},
	}
	add := func(sign int64) MethodImpl {
		return func(ctx *MethodCtx) (value.Value, error) {
			b, err := ctx.Get("balance")
			if err != nil {
				return value.Null(), err
			}
			return value.Null(), ctx.Set("balance", value.Int(b.AsInt()+sign*ctx.Arg("n").AsInt()))
		}
	}
	impl := ClassImpl{
		Methods: map[string]MethodImpl{"deposit": add(1), "withdraw": add(-1)},
		Actions: map[string]ActionFunc{},
	}
	for _, tr := range cls.Triggers {
		name := tr.Name
		impl.Actions[name] = func(ctx *ActionCtx) error {
			fires = append(fires, fmt.Sprintf("%s@%d %s", name, ctx.Self, ctx.EventKind))
			return nil
		}
	}
	e := newEngine(t, Options{CombinedAutomata: useCombined})
	c, err := e.RegisterClass(cls, impl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if useCombined && c.monitor == nil {
		t.Fatal("class should be eligible for combined monitoring")
	}
	if !useCombined && c.monitor != nil {
		t.Fatal("combined monitor built without the option")
	}

	const objects = 3
	oids := make([]store.OID, objects)
	e.Transact(func(tx *Tx) error {
		for i := range oids {
			oids[i], _ = tx.NewObject("acct", nil)
			for _, tr := range cls.Triggers {
				if err := tx.Activate(oids[i], tr.Name); err != nil {
					return err
				}
			}
		}
		return nil
	})

	rng := rand.New(rand.NewSource(seed))
	b := NewBatch("acct", 4)
	for i := 0; i < 120; i++ {
		oid := oids[rng.Intn(objects)]
		abort := rng.Intn(6) == 0
		b.Reset()
		for c := 0; c < 1+rng.Intn(3); c++ {
			method := "deposit"
			if rng.Intn(2) == 0 {
				method = "withdraw"
			}
			b.Call(oid, method, value.Int(int64(rng.Intn(100))))
		}
		e.Transact(func(tx *Tx) error {
			if mode == "batch" {
				if err := tx.PostBatch(b); err != nil {
					return err
				}
			} else {
				for j := 0; j < b.Len(); j++ {
					oid, method, args := b.Entry(j)
					if _, err := tx.Call(oid, method, args...); err != nil {
						return err
					}
				}
			}
			if abort {
				return errors.New("abort")
			}
			return nil
		})
		if rng.Intn(4) == 0 {
			e.Clock().Advance(time.Duration(1+rng.Intn(12)) * time.Minute)
		}
	}
	if errs := e.TimerErrors(); len(errs) != 0 {
		t.Fatalf("timer errors: %v", errs)
	}
	run := combinedRun{fires: fires}
	for _, oid := range oids {
		r, err := e.Store().Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		run.balances = append(run.balances, r.Fields["balance"].AsInt())
		var st []string
		for name, act := range r.Triggers {
			st = append(st, fmt.Sprintf("%s=%d/%v", name, act.State, act.Active))
		}
		sort.Strings(st)
		run.states = append(run.states, strings.Join(st, " "))
	}
	return run
}

// TestCombinedMatchesPerTrigger drives an identical randomized
// workload through both monitoring modes: the firing transcripts and
// balances must be identical, event for event.
func TestCombinedMatchesPerTrigger(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		per := combinedFixture(t, seed, false, "call")
		comb := combinedFixture(t, seed, true, "call")
		if len(per.fires) != len(comb.fires) {
			t.Fatalf("seed %d: %d vs %d firings", seed, len(per.fires), len(comb.fires))
		}
		for i := range per.fires {
			if per.fires[i] != comb.fires[i] {
				t.Fatalf("seed %d: firing %d differs: %s vs %s", seed, i, per.fires[i], comb.fires[i])
			}
		}
		if len(per.fires) == 0 {
			t.Fatalf("seed %d: empty transcript proves nothing", seed)
		}
		if !reflect.DeepEqual(per.balances, comb.balances) {
			t.Fatalf("seed %d: balances %v vs %v", seed, per.balances, comb.balances)
		}
	}
}

// TestCombinedPostBatch posts the workload through PostBatch as well
// as through single calls, with and without combined monitoring: all
// four runs fire the same transcript and end on the same balances, and
// within each monitoring mode the trigger states (the combined word
// included) match between single calls and batches. The shadow oracle
// turns combining off, so it cannot cover these paths.
func TestCombinedPostBatch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ref := combinedFixture(t, seed, false, "call")
		for _, useCombined := range []bool{false, true} {
			call := combinedFixture(t, seed, useCombined, "call")
			batch := combinedFixture(t, seed, useCombined, "batch")
			for _, got := range []combinedRun{call, batch} {
				if !reflect.DeepEqual(got.fires, ref.fires) {
					t.Fatalf("seed %d combined=%v: firings diverge:\n got: %v\nwant: %v", seed, useCombined, got.fires, ref.fires)
				}
				if !reflect.DeepEqual(got.balances, ref.balances) {
					t.Fatalf("seed %d combined=%v: balances %v, want %v", seed, useCombined, got.balances, ref.balances)
				}
			}
			if !reflect.DeepEqual(call.states, batch.states) {
				t.Fatalf("seed %d combined=%v: trigger states diverge:\ncall:  %v\nbatch: %v", seed, useCombined, call.states, batch.states)
			}
		}
	}
}

// TestCombinedEligibilityRules checks every disqualifier.
func TestCombinedEligibilityRules(t *testing.T) {
	base := func() (*schema.Class, ClassImpl) {
		rec := &recorder{}
		cls, impl := accountClass(rec,
			schema.Trigger{Name: "T", Perpetual: true, Event: "after deposit"})
		return cls, impl
	}
	cases := []struct {
		name   string
		mutate func(*schema.Class, *ClassImpl)
	}{
		{"ordinary trigger", func(c *schema.Class, _ *ClassImpl) { c.Triggers[0].Perpetual = false }},
		{"whole view", func(c *schema.Class, _ *ClassImpl) { c.Triggers[0].View = schema.WholeView }},
		{"trigger params", func(c *schema.Class, _ *ClassImpl) {
			c.Triggers[0].Params = []schema.Param{{Name: "x", Kind: value.KindInt}}
			c.Triggers[0].Event = "after deposit(n) && n > x"
		}},
		{"after-timer", func(c *schema.Class, _ *ClassImpl) {
			c.Triggers[0].Event = "after time(HR=1)"
		}},
	}
	for _, tc := range cases {
		cls, impl := base()
		cls.Name = "acct_" + tc.name
		tc.mutate(cls, &impl)
		e := newEngine(t, Options{CombinedAutomata: true})
		c, err := e.RegisterClass(cls, impl, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.monitor != nil {
			t.Errorf("%s: class should be ineligible", tc.name)
		}
	}
	// The unmutated class is eligible.
	cls, impl := base()
	e := newEngine(t, Options{CombinedAutomata: true})
	c, err := e.RegisterClass(cls, impl, nil)
	if err != nil || c.monitor == nil {
		t.Fatalf("baseline ineligible: %v", err)
	}
}

// TestCombinedSingleStateWord verifies the storage claim: one word per
// object in total, not per trigger.
func TestCombinedSingleStateWord(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "A", Perpetual: true, Event: "after deposit"},
		schema.Trigger{Name: "B", Perpetual: true, Event: "after withdraw"},
		schema.Trigger{Name: "C", Perpetual: true, Event: "every 2 (after access)"})
	e := newEngine(t, Options{CombinedAutomata: true})
	oid := setup(t, e, cls, impl, "A", "B", "C")

	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1))
		return nil
	})
	r, _ := e.Store().Get(oid)
	// Per-trigger activation records exist (Active flags + params) but
	// only the __combined slot carries a moving state.
	slot, ok := r.Triggers[combinedSlot]
	if !ok || !slot.Active {
		t.Fatal("no combined state slot")
	}
	for _, name := range []string{"A", "B", "C"} {
		if r.Triggers[name].State != 0 {
			t.Fatalf("per-trigger state %s advanced in combined mode", name)
		}
	}
	// Abort rolls the shared word back with the record.
	before := slot.State
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(1))
		return errors.New("abort")
	})
	r2, _ := e.Store().Get(oid)
	if r2.Triggers[combinedSlot].State != before {
		t.Fatal("combined state not rolled back on abort")
	}
}

// TestCombinedDeactivationSuppressesFiring checks that deactivation
// under combined monitoring suppresses the action but keeps the shared
// history moving.
func TestCombinedDeactivationSuppressesFiring(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Seq", Perpetual: true, Event: "relative(after deposit, after withdraw)"},
		schema.Trigger{Name: "All", Perpetual: true, Event: "after access"})
	e := newEngine(t, Options{CombinedAutomata: true})
	oid := setup(t, e, cls, impl, "Seq", "All")

	e.Transact(func(tx *Tx) error { return tx.Deactivate(oid, "Seq") })
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "deposit", value.Int(1)) // Seq suppressed but history advances
		return nil
	})
	e.Transact(func(tx *Tx) error { return tx.Activate(oid, "Seq") })
	e.Transact(func(tx *Tx) error {
		tx.Call(oid, "withdraw", value.Int(1)) // completes the pair in shared history
		return nil
	})
	seqFired := 0
	for _, f := range rec.list() {
		if f == "Seq" {
			seqFired++
		}
	}
	// Shared-history semantics: the deposit observed while Seq was
	// deactivated still counts once it is re-activated (documented
	// deviation from per-trigger activation resets).
	if seqFired != 1 {
		t.Fatalf("Seq fired %d times, want 1 under shared-history semantics", seqFired)
	}
}

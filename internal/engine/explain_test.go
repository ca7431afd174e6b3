package engine

import (
	"strings"
	"testing"

	"ode/internal/algebra"
	"ode/internal/event"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// replayChain drives the trigger's fat oracle DFA through the
// explanation's steps, asserting every recorded from→to transition
// matches the automaton, and returns the final state.
func replayChain(t *testing.T, tr *Trigger, ex *Explanation) int {
	t.Helper()
	d := tr.Oracle()
	state := d.Start
	for i, s := range ex.Steps {
		if s.From != state {
			t.Fatalf("step %d: chain From=%d, replay is at %d (%+v)", i, s.From, state, s)
		}
		next := d.Next(state, s.Sym)
		if next != s.To {
			t.Fatalf("step %d: chain To=%d, oracle DFA moves %d --%d--> %d", i, s.To, state, s.Sym, next)
		}
		if got := d.Accept[next]; got != s.Accepted {
			t.Fatalf("step %d: chain Accepted=%v, oracle accept[%d]=%v", i, s.Accepted, next, got)
		}
		state = next
	}
	return state
}

// TestExplainPriorAgainstOracle is the acceptance check: for a fired
// prior trigger, Explain returns the exact contributing happening
// sequence — verified by replaying the chain through the shadow
// oracle's DFA and the §4 denotational semantics.
func TestExplainPriorAgainstOracle(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Audit", Event: "prior(after deposit, after withdraw)"})
	e := newEngine(t, Options{ShadowOracle: true})
	oid := setup(t, e, cls, impl, "Audit")

	err := e.Transact(func(tx *Tx) error {
		if _, err := tx.Call(oid, "deposit", value.Int(50)); err != nil {
			return err
		}
		if _, err := tx.Call(oid, "getBalance"); err != nil { // inert noise
			return err
		}
		_, err := tx.Call(oid, "withdraw", value.Int(20))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("Audit should have fired once, got %v", rec.list())
	}

	ex, err := e.Explain("Audit", oid)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Fired || !ex.Complete {
		t.Fatalf("explanation not a complete firing chain: %+v", ex)
	}
	if ex.Active {
		t.Fatal("ordinary trigger should be deactivated after firing")
	}
	if len(ex.Steps) != 2 {
		t.Fatalf("prior(dep, wd) firing chain should be 2 steps, got %d: %+v", len(ex.Steps), ex.Steps)
	}
	if ex.Steps[0].Kind != "after deposit" || ex.Steps[1].Kind != "after withdraw" {
		t.Fatalf("chain kinds = %q, %q; want after deposit, after withdraw",
			ex.Steps[0].Kind, ex.Steps[1].Kind)
	}
	if !ex.Steps[len(ex.Steps)-1].Accepted {
		t.Fatal("chain must end at the accepting transition")
	}

	tr := e.Class("account").Trigger("Audit")
	final := replayChain(t, tr, ex)
	if !tr.Oracle().Accept[final] {
		t.Fatalf("replayed chain ends in non-accepting state %d", final)
	}
	// The §4 denotational semantics agree the chain's symbol history is
	// an occurrence of the trigger's event expression.
	syms := make([]int, len(ex.Steps))
	for i, s := range ex.Steps {
		syms[i] = s.Sym
	}
	if !algebra.Occurs(tr.Res.Expr, syms) {
		t.Fatalf("oracle says chain %v is not an occurrence of %s", syms, tr.Res.Name)
	}
}

// TestExplainSequenceAgainstOracle does the same for a sequence
// (immediate-succession) trigger, posting hand-built happenings so no
// method-lifecycle noise sits between the constituents.
func TestExplainSequenceAgainstOracle(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Pair", Event: "sequence(after deposit, after withdraw)"})
	e := newEngine(t, Options{ShadowOracle: true})
	oid := setup(t, e, cls, impl, "Pair")

	tx := e.Begin()
	r, err := tx.access(oid)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []event.Kind{
		event.MethodKind(event.After, "deposit"),
		event.MethodKind(event.After, "withdraw"),
	} {
		h := event.Happening{Kind: kind, TxID: tx.ID(), At: e.clk.Now()}
		if _, err := tx.post(oid, r, h, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("Pair should have fired once, got %v", rec.list())
	}

	ex, err := e.Explain("Pair", oid)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Fired || !ex.Complete {
		t.Fatalf("explanation not a complete firing chain: %+v", ex)
	}
	if len(ex.Steps) != 2 ||
		ex.Steps[0].Kind != "after deposit" || ex.Steps[1].Kind != "after withdraw" {
		t.Fatalf("chain = %+v; want the dep, wd pair", ex.Steps)
	}
	tr := e.Class("account").Trigger("Pair")
	final := replayChain(t, tr, ex)
	if !tr.Oracle().Accept[final] {
		t.Fatalf("replayed chain ends in non-accepting state %d", final)
	}
	syms := make([]int, len(ex.Steps))
	for i, s := range ex.Steps {
		syms[i] = s.Sym
	}
	if !algebra.Occurs(tr.Res.Expr, syms) {
		t.Fatalf("oracle says chain %v is not an occurrence", syms)
	}
}

// TestExplainUnfiredAndReset: an unfired instance is explained up to
// its current state, and re-activation resets its provenance.
func TestExplainUnfiredAndReset(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Audit", Event: "prior(after deposit, after withdraw)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Audit")

	err := e.Transact(func(tx *Tx) error {
		_, err := tx.Call(oid, "deposit", value.Int(5))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.Explain("Audit", oid)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Fired {
		t.Fatal("nothing fired yet")
	}
	if !ex.Active || len(ex.Steps) != 1 || ex.Steps[0].Kind != "after deposit" {
		t.Fatalf("partial chain = %+v", ex)
	}
	if !ex.Complete {
		t.Fatal("partial chain still reaches the start state")
	}

	// Re-activation restarts the automaton and discards provenance.
	if err := e.Transact(func(tx *Tx) error { return tx.Activate(oid, "Audit") }); err != nil {
		t.Fatal(err)
	}
	ex, err = e.Explain("Audit", oid)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Steps) != 0 || ex.TotalSteps != 0 || ex.Fired {
		t.Fatalf("provenance should be reset on re-activation: %+v", ex)
	}
}

// TestExplainErrors covers the refusal paths.
func TestExplainErrors(t *testing.T) {
	rec := &recorder{}
	cls, impl := accountClass(rec,
		schema.Trigger{Name: "Audit", Event: "prior(after deposit, after withdraw)"})
	e := newEngine(t, Options{})
	oid := setup(t, e, cls, impl, "Audit")

	if _, err := e.Explain("NoSuch", oid); err == nil || !strings.Contains(err.Error(), "no trigger") {
		t.Fatalf("unknown trigger: %v", err)
	}
	if _, err := e.Explain("Audit", store.OID(999999)); err == nil {
		t.Fatal("unknown object should fail")
	}

	// Disabled provenance refuses with a pointed message.
	e2 := newEngine(t, Options{ProvenanceDepth: -1})
	oid2 := setup(t, e2, cls, impl, "Audit")
	if _, err := e2.Explain("Audit", oid2); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("disabled provenance: %v", err)
	}
}

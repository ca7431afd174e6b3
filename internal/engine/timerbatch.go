package engine

import (
	"fmt"

	"ode/internal/event"
	"ode/internal/store"
)

// Cohort delivery: when a cohort comes due, every member observes the
// same time event at the same instant (§3.1 — 'at'/'every' denote
// shared history points). Delivering member-by-member through postTimer
// would pay a system transaction, a lock acquire, a flight stamp and a
// counter flush per object; deliverCohort instead streams the due
// members through the stepping kernel (Tx.step) in ONE system
// transaction per (class, tick), amortizing those costs exactly as
// PostBatch does for method calls.
//
// Semantics relative to the per-object path (Options.PerObjectTimers),
// pinned by the equivalence test in timer_equiv_test.go:
//   - each member still observes one happening of the timer kind at the
//     cohort instant, delivered to every active trigger of the object in
//     dispatch order — identical automaton steps, firings, provenance
//     symbols, and action effects;
//   - members are visited in ascending OID order. The per-object path
//     orders same-instant deliveries by timer-registration order, which
//     for a fleet armed in creation order is the same thing; programs
//     must not rely on cross-OBJECT delivery order either way (the paper
//     orders events within an object's history, not across objects);
//   - the members share the system transaction, so an action may read
//     co-members' same-tick updates before commit. System transactions
//     post no transaction lifecycle events, so happening streams are
//     unchanged;
//   - on any member error the shared transaction aborts (rolling back
//     every member) and the whole tick is re-delivered through the
//     per-object path, giving each member its own transaction and any
//     per-object failure its own recorded error.

// plan returns the cohort's cached delivery phase for its class,
// rebuilding it when the class was re-registered. Only the clock-
// advancing goroutine touches it.
func (co *cohort) plan(c *Class) (*batchPhase, error) {
	if co.ph != nil && co.phC == c {
		return co.ph, nil
	}
	ph, err := newPhase(c, event.TimerKind(co.ck.key))
	if err != nil {
		return nil, err
	}
	co.ph, co.phC = &ph, c
	return co.ph, nil
}

// deliverCohort posts one due tick of a cohort to the given members
// (sorted ascending) in one system transaction.
func (e *Engine) deliverCohort(co *cohort, oids []store.OID) {
	c := e.Class(co.ck.class)
	if c == nil {
		e.recordTimerErr(fmt.Errorf("engine: timer %q: class %q not registered", co.ck.key, co.ck.class))
		return
	}
	ph, err := co.plan(c)
	if err != nil {
		// Unreachable for an armed spec: arming resolved the trigger
		// against the same alphabet.
		e.recordTimerErr(fmt.Errorf("engine: timer %q: %w", co.ck.key, err))
		return
	}

	now := e.clk.Now()
	sys := e.beginSystem()
	// Narrow stepping: members are peeked, not accessed — step
	// registers a member as dirty (with a narrow activation-scalar
	// before-image) only when its automaton actually changes state, and
	// promotes it to a full image only when a trigger fires. A member
	// whose instances all self-loop on the tick — the steady state of a
	// monitoring-shaped `every` fleet — costs no clone, no WAL record,
	// and no epoch publication, which is what lets a 100k-object storm
	// sweep at memory speed.
	sys.narrowStep = true
	var delivered uint64
	err = func() error {
		for _, oid := range oids {
			if !e.st.Exists(oid) {
				continue
			}
			rec, err := sys.tx.Peek(oid)
			if err != nil {
				return fmt.Errorf("engine: timer %q on object %d: %w", co.ck.key, oid, err)
			}
			e.traceTimer(oid, co.ck.key, "")
			// TxID stays zero: time events belong to no user transaction,
			// and the per-object path stamps none either (history
			// equality depends on it).
			h := event.Happening{Kind: ph.kind, At: now}
			if _, err := sys.postPhase(c, ph, oid, rec, &h); err != nil {
				return fmt.Errorf("engine: timer %q on object %d: %w", co.ck.key, oid, err)
			}
			delivered++
		}
		return nil
	}()
	if err != nil {
		sys.doAbort()
		e.recordTimerErr(err)
		// The abort rolled back every member's step; re-deliver the tick
		// one object at a time so unaffected members still observe it.
		ph.count = 0
		for _, oid := range oids {
			e.postTimer(oid, co.ck.key, nil)
		}
		return
	}
	e.stats.timerPosts.Add(delivered)
	sys.flushPhase(c, ph, now.UnixNano())
	sys.flushCounts()
	if err := sys.Commit(); err != nil {
		e.recordTimerErr(fmt.Errorf("engine: timer %q cohort commit: %w", co.ck.key, err))
	}
}

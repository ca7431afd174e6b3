package engine

import (
	"ode/internal/compile"
	"ode/internal/event"
	"ode/internal/evlang"
	"ode/internal/fa"
	"ode/internal/mask"
	"ode/internal/schema"
	"ode/internal/store"
)

// Footnote 5 of the paper: "In many cases such automata may be
// combined into one, resulting in a more efficient monitoring."
// When Options.CombinedAutomata is set, eligible classes monitor all
// triggers with a single product automaton: one transition (and one
// word of per-object state *total*) per posted event, instead of one
// per trigger.
//
// Eligibility is semantic, not just mechanical. The combined state is
// shared, so per-trigger history starts cannot be represented:
//   - every trigger must be perpetual (ordinary triggers deactivate on
//     firing and would later re-activate with a fresh history);
//   - every trigger must use the committed view (the single state word
//     lives in the record and rolls back with it);
//   - no trigger may take activation parameters (mask evaluation must
//     not depend on the instance).
//
// Activation semantics under combination: the object's shared history
// begins at the first activation of any trigger; activating further
// triggers later joins them to the shared history mid-stream, and
// deactivation merely suppresses firing. This matches the paper's §3.5
// pattern of activating everything in the constructor.
const combinedSlot = "__combined"

// combinedMonitor is the per-class combined automaton.
type combinedMonitor struct {
	comb  *compile.Combined
	order []string       // trigger name per fire-bit (Class.Triggers order)
	used  map[int]uint32 // kindIx → union of mask bits any trigger needs
	// progs[kindIx] holds the compiled programs for the used bits
	// (compiled with no trigger parameters — eligibility forbids them).
	progs map[int][]*mask.Program
}

// buildCombined returns nil when the class is ineligible.
func buildCombined(c *Class) *combinedMonitor {
	if len(c.Triggers) == 0 || len(c.Triggers) > 64 {
		return nil
	}
	dfas := make([]*fa.DFA, len(c.Triggers))
	order := make([]string, len(c.Triggers))
	used := map[int]uint32{}
	for i, t := range c.Triggers {
		if !t.Res.Perpetual || t.View != schema.CommittedView || len(t.Res.Params) > 0 {
			return nil
		}
		// 'after'-mode timers deliver to a single trigger; a shared
		// automaton cannot advance selectively.
		for _, tr := range t.Res.Timers {
			if tr.Mode == evlang.TimeAfter {
				return nil
			}
		}
		dfas[i] = t.Oracle()
		order[i] = t.Res.Name
		for kix, bits := range t.Res.UsedBits {
			used[kix] |= bits
		}
	}
	return &combinedMonitor{
		comb:  compile.Combine(dfas),
		order: order,
		used:  used,
	}
}

// stepCombined advances the object's single combined state and
// appends the triggers to fire to tx.fired. Called from step in place
// of the per-trigger walk.
func (tx *Tx) stepCombined(c *Class, cm *combinedMonitor, kindIx int,
	h *event.Happening, oid store.OID, rec *store.Record) error {
	// The shared history exists only once some trigger is active. The
	// caller (step) has already bound the record's dense slots; order
	// follows Class.Triggers, so slot j belongs to order[j].
	anyActive := false
	for j := range cm.order {
		if act := rec.Slot(j); act != nil && act.Active {
			anyActive = true
			break
		}
	}
	if !anyActive {
		return nil
	}
	// Committed view only: abort events are invisible (§6).
	if h.Kind.Class == event.KTabort {
		return nil
	}
	if tx.narrowStep {
		// Narrow stepping covers per-trigger activation scalars only;
		// the shared word may be created below, so take the full
		// before-image first.
		if err := tx.promote(oid); err != nil {
			return err
		}
	}
	used := cm.used[kindIx]
	bits, err := tx.evalMask(c, cm.progs[kindIx], used, kindIx, h, nil, nil, oid, rec, nil)
	if err != nil {
		return err
	}
	if used != 0 {
		tx.e.traceMask(tx.tx.ID(), oid, c.Schema.Name, combinedSlot, used, bits)
	}
	sym := c.Res.Alphabet.Symbol(kindIx, bits)

	slot := rec.Trigger(combinedSlot)
	if !slot.Active {
		slot.Active = true
		slot.State = cm.comb.Start
	}
	prev := slot.State
	next, fireMask := cm.comb.Post(prev, sym)
	slot.State = next
	tx.counts.steps++
	tx.e.traceStep(tx.tx.ID(), oid, c.Schema.Name, combinedSlot, prev, next, fireMask != 0)

	for j := range cm.order {
		if fireMask&(1<<uint(j)) == 0 {
			continue
		}
		act := rec.Slot(j)
		if act == nil || !act.Active {
			continue // suppressed: deactivated triggers do not fire
		}
		tx.fired = append(tx.fired, firedTrigger{c.Triggers[j], act})
	}
	return nil
}

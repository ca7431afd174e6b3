package engine

import (
	"fmt"
	"time"

	"ode/internal/algebra"
	"ode/internal/event"
	"ode/internal/history"
	"ode/internal/mask"
	"ode/internal/obs"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// MethodCtx is passed to member-function implementations.
type MethodCtx struct {
	Tx   *Tx
	Self store.OID
	Args map[string]value.Value
}

// Arg returns a bound parameter (null if absent).
func (c *MethodCtx) Arg(name string) value.Value { return c.Args[name] }

// Get reads a field of the receiving object.
func (c *MethodCtx) Get(field string) (value.Value, error) { return c.Tx.Get(c.Self, field) }

// Set writes a field of the receiving object.
func (c *MethodCtx) Set(field string, v value.Value) error { return c.Tx.Set(c.Self, field, v) }

// ActionCtx is passed to trigger actions. Params are the trigger's
// activation parameters; composite events carry no event parameters
// (§3.3).
//
// EventKind and EventParams describe the happening that completed the
// composite event — its last logical event. This goes beyond the
// paper, which lists "the incorporation of arguments into composite
// event specification" as future work (§9); exposing the final
// happening's parameters is the cheap four-fifths of that feature
// (collecting values from *earlier* constituent events would require
// augmenting the automaton state and is deliberately not done).
//
// The context is valid only for the duration of the action call: the
// engine reuses its storage across firings, so actions must not retain
// the pointer (the Params and EventParams maps themselves are stable
// and may be kept).
type ActionCtx struct {
	Tx      *Tx
	Self    store.OID
	Trigger string
	Params  map[string]value.Value

	EventKind   string
	EventParams map[string]value.Value
}

// Tabort returns the tabort sentinel: returning it from an action
// aborts the posting transaction (the paper's tabort statement).
func (c *ActionCtx) Tabort() error { return ErrTabort }

type firedTrigger struct {
	t   *Trigger
	act *store.TrigActivation
}

// postCounts accumulates the engine-wide statistics of the postings
// since the last flushCounts in plain integers, so parallel posters do
// not contend on the shared atomic counters once per automaton step.
type postCounts struct {
	happenings, steps, maskEvals, provSteps uint64
}

// flushCounts publishes the accumulated engine-wide statistics, one
// atomic add per non-zero counter. Callers flush once per single post,
// batch or timer tick.
func (tx *Tx) flushCounts() {
	n, s := &tx.counts, &tx.e.stats
	if n.happenings != 0 {
		s.happenings.Add(n.happenings)
	}
	if n.steps != 0 {
		s.steps.Add(n.steps)
	}
	if n.maskEvals != 0 {
		s.maskEvals.Add(n.maskEvals)
	}
	if n.provSteps != 0 {
		s.provSteps.Add(n.provSteps)
	}
	*n = postCounts{}
}

// post delivers one happening to one object: it resolves the kind,
// stamps the happening into the flight recorder, steps it, and flushes
// the counters. Every posting path except PostBatch and cohort timer
// delivery (which resolve kinds once and summarize per batch or tick)
// comes through here. only, when non-nil, restricts delivery to one
// trigger ('after' one-shots).
func (tx *Tx) post(oid store.OID, rec *store.Record, h event.Happening, only *Trigger) (bool, error) {
	c, err := tx.e.classOf(rec)
	if err != nil {
		return false, err
	}
	kindIx := c.Res.Alphabet.KindIndex(h.Kind)
	if kindIx < 0 {
		return false, fmt.Errorf("engine: class %s cannot experience %s", rec.Class, h.Kind)
	}
	c.met.Happening()
	tx.e.flightHappening(h.At.UnixNano(), tx.tx.ID(), oid, c.nameID, c.kindIDs[kindIx])
	fired, err := tx.step(c, kindIx, oid, rec, &h, only)
	tx.flushCounts()
	return fired, err
}

// step is the engine's one stepping loop, §5's procedure for one
// posted happening of kind index kindIx on one object: it maps the
// happening to each active trigger instance's alphabet symbol, advances
// the instance's single integer of state, collects every trigger whose
// automaton now accepts, and then fires them (deactivating ordinary
// triggers first — "an ordinary trigger is automatically deactivated
// the moment it fires", §2). Actions execute inside this transaction,
// immediately (§5). A class under footnote-5 combined monitoring takes
// one combined transition instead of the per-trigger walk. only, when
// non-nil, restricts delivery to that trigger.
//
// The caller resolves the kind and records the happening's flight
// entry and class count (one stamp per single post, one StageBatch
// summary per batch or tick); engine-wide counts accumulate in
// tx.counts until the caller flushes them. step reports whether any
// trigger fired — the commit fixpoint's quiescence signal.
func (tx *Tx) step(c *Class, kindIx int, oid store.OID, rec *store.Record, h *event.Happening, only *Trigger) (bool, error) {
	txid := tx.tx.ID()
	tx.e.recordHappening(oid, *h)
	tx.counts.happenings++
	tx.e.traceHappening(txid, oid, c.Schema.Name, h.Kind)

	// Dense trigger slots: bind the record's slot table lazily (fresh
	// objects and recovered records arrive unbound). We hold the
	// object's transaction lock here.
	c.ensureSlots(rec)

	// Fired triggers accumulate in the Tx's scratch arena with stack
	// discipline: this call appends from base and truncates back on
	// every return, so nested postings (from mask-called read methods
	// or fired actions) stack above us without allocating.
	base := len(tx.fired)
	var err error
	// The dispatch table has already folded in kind relevance
	// (irrelevant kinds cannot change the instance's behavior; see
	// compile.InertSymbol — disabled under the shadow oracle, which
	// needs complete symbol histories) and the committed-view rule that
	// aborted histories are invisible (§6).
	entries := c.dispatch[kindIx]
	if cm := c.monitor; cm != nil {
		err = tx.stepCombined(c, cm, kindIx, h, oid, rec)
		entries = nil
	}
	for i := range entries {
		d := &entries[i]
		t := d.t
		if only != nil && t != only {
			continue
		}
		act := rec.Slot(t.slot)
		if act == nil || !act.Active {
			continue
		}
		var bits uint32
		if d.used != 0 {
			if bits, err = tx.evalMask(c, d.progs, d.used, kindIx, h, act.Params, trigDense(t, act), oid, rec, t.met); err != nil {
				err = fmt.Errorf("engine: trigger %s mask: %w", t.Res.Name, err)
				break
			}
			tx.e.traceMask(txid, oid, c.Schema.Name, t.Res.Name, d.used, bits)
		}
		sym := c.Res.Alphabet.Symbol(kindIx, bits)

		// The step itself runs on the compact shared table: a row-index
		// load, a narrow cell load and a bitset probe, through the
		// trigger's class-symbol remap.
		var prev, next int
		if t.View == schema.WholeView {
			key := instanceKey{oid, t.Res.Name}
			tx.e.wholeMu.Lock()
			cur, ok := tx.e.whole[key]
			if !ok {
				cur = t.Auto.Start()
			}
			prev = cur
			next = t.Auto.Next(cur, sym)
			tx.e.whole[key] = next
			if tx.e.shadowOracle {
				tx.e.wholeShadow[key] = append(tx.e.wholeShadow[key], sym)
			}
			tx.e.wholeMu.Unlock()
		} else {
			prev = act.State
			next = t.Auto.Next(prev, sym)
			if next != prev || tx.e.shadowOracle {
				// Narrow stepping (cohort timer delivery) peeks records
				// instead of accessing them: register the narrow before-
				// image at the first in-place mutation (idempotent after
				// that). Self-looping instances skip this entirely — the
				// record is bit-identical after the step, so it needs no
				// undo, no WAL record, and no epoch republication.
				if tx.narrowStep {
					if _, _, err = tx.tx.AccessNarrow(oid); err != nil {
						break
					}
				}
				act.State = next
				if tx.e.shadowOracle {
					act.Shadow = append(act.Shadow, sym)
				}
			}
		}
		tx.counts.steps++
		t.met.Step()
		accepted := t.Auto.Accept(next)
		// Firing provenance: non-accepting self-loops (the masked
		// non-firing common case) append nothing, so the per-instance
		// ring spans a long history and this costs one branch. Skipping
		// them preserves the chain walk — the state is unchanged across
		// the gap.
		if next != prev || accepted {
			if r := tx.e.provRing(oid, t.Res.Name); r != nil {
				r.Append(obs.ProvStep{
					TxID: txid, AtNs: h.At.UnixNano(),
					KindID: c.kindIDs[kindIx], Bits: bits, Sym: sym,
					From: prev, To: next, Accepted: accepted,
				})
				tx.counts.provSteps++
			}
		}
		tx.e.traceStep(txid, oid, c.Schema.Name, t.Res.Name, prev, next, accepted)
		if tx.e.shadowOracle {
			if err = tx.e.shadowCheck(oid, t, act, accepted); err != nil {
				break
			}
		}
		if accepted {
			tx.fired = append(tx.fired, firedTrigger{t, act})
		}
	}

	fired := tx.fired[base:]
	if err == nil && len(fired) > 0 && tx.narrowStep {
		// The narrow image covers only activation scalars, but the
		// actions about to run may mutate anything: promote the object
		// to a full before-image while its fields are still untouched.
		err = tx.promote(oid)
	}
	if err != nil || len(fired) == 0 {
		tx.fired = tx.fired[:base]
		return false, err
	}
	// "We determine all the trigger events that have occurred, and
	// then we fire the triggers" (§5): deactivations happen before any
	// action runs, so an action re-activating a trigger is preserved.
	for _, f := range fired {
		if !f.t.Res.Perpetual {
			f.act.Active = false
			tx.e.timers.disarm(oid, f.t)
		}
	}
	err = tx.fire(oid, c, kindIx, h, fired)
	tx.fired = tx.fired[:base]
	// Actions run arbitrary engine operations; drop the record cache
	// rather than reason about what they touched.
	tx.cachedRec = nil
	return true, err
}

// promote registers a narrow-stepped object with the transaction (it
// may be pristine — an accepting self-loop) and upgrades it to a full
// before-image, ahead of anything but activation scalars changing.
func (tx *Tx) promote(oid store.OID) error {
	if _, _, err := tx.tx.AccessNarrow(oid); err != nil {
		return err
	}
	return tx.tx.Promote(oid)
}

// fire executes the actions of the collected triggers, recording each
// action's wall-clock latency in the trigger's metrics (and trace,
// when enabled). The first action error stops the run — the engine's
// pre-existing semantics: a failing action aborts the posting.
func (tx *Tx) fire(oid store.OID, c *Class, kindIx int, h *event.Happening, fired []firedTrigger) error {
	kind := c.kindNames[kindIx]
	for _, f := range fired {
		// The ActionCtx lives on the Tx and is reused across firings;
		// save/restore by value keeps nested firings (an action whose
		// method call fires further triggers) correct. Actions must not
		// retain the pointer past their return (documented on the type).
		saved := tx.actCtx
		tx.actCtx = ActionCtx{
			Tx: tx, Self: oid, Trigger: f.t.Res.Name, Params: f.act.Params,
			EventKind: kind, EventParams: h.Params,
		}
		tx.e.stats.firings.Add(1)
		start := time.Now()
		err := f.t.Action(&tx.actCtx)
		d := time.Since(start)
		tx.actCtx = saved
		f.t.met.Fire(d, err)
		tx.e.flightFire(tx.tx.ID(), oid, c.nameID, f.t.nameID, err == nil, d.Nanoseconds())
		tx.e.traceFire(tx.tx.ID(), oid, c.Schema.Name, f.t.Res.Name, d, err)
		if err != nil {
			return err
		}
		// Capture the firing for the durable egress feed. Only
		// successful actions are captured — a failed action aborts the
		// posting transaction, and the feed carries committed firings
		// only. Seq and TxID are stamped by the store at commit.
		if !tx.e.egressOff {
			tx.tx.AddFiring(store.FiringRecord{
				OID:     oid,
				Part:    tx.e.partition,
				Class:   c.Schema.Name,
				Trigger: f.t.Res.Name,
				Kind:    kind,
				AtNs:    h.At.UnixNano(),
			})
		}
	}
	return nil
}

// evalMask evaluates exactly the mask bits in used, producing the mask
// valuation bits of the symbol. The compiled programs run when
// available (progs[bit] resolved at registration) and the happening
// carries its dense parameter slice; otherwise — under
// Options.InterpretedMasks, or for hand-built happenings with map-only
// parameters — the AST interpreter, the semantic oracle, evaluates
// each bit. trigParams/trigDense may be nil (combined monitoring
// forbids trigger parameters), as may met (combined monitoring
// evaluates the class-wide bit union, which belongs to no single
// trigger).
func (tx *Tx) evalMask(c *Class, progs []*mask.Program, used uint32, kindIx int, h *event.Happening,
	trigParams map[string]value.Value, trigDense []value.Value, oid store.OID, rec *store.Record,
	met *obs.TriggerMetrics) (uint32, error) {
	if used == 0 {
		return 0, nil
	}
	var bits, evals, falses uint32
	var err error
	if progs != nil && !tx.e.interpretMasks && len(h.Dense) == len(h.Params) {
		// The Tx's progHost is reused by address (the Host interface
		// conversion must not allocate); save/restore by value keeps
		// nested evaluations — a mask calling a read method whose
		// postings evaluate further masks — correct.
		saved := tx.penv
		tx.penv = progHost{tx: tx, self: oid, rec: rec, cls: c}
		bits, evals, falses, err = mask.EvalBits(progs, used, h.Dense, trigDense, &tx.penv)
		tx.penv = saved
	} else {
		masks := c.Res.Alphabet.Kinds[kindIx].Masks
		env := &maskEnv{tx: tx, self: oid, rec: rec, cls: c, params: h.Params, trig: trigParams}
		for bit := range masks {
			if used&(1<<bit) == 0 {
				continue
			}
			evals++
			env.rename = masks[bit].Rename
			var ok bool
			if ok, err = masks[bit].Expr.EvalBool(env); err != nil {
				break
			}
			if ok {
				bits |= 1 << bit
			} else {
				falses++
			}
		}
	}
	tx.counts.maskEvals += uint64(evals)
	if err != nil {
		// The failing evaluation reached no verdict.
		met.MaskEvalN(uint64(evals-1), uint64(falses))
		return 0, err
	}
	met.MaskEvalN(uint64(evals), uint64(falses))
	return bits, nil
}

// shadowCheck re-evaluates the trigger's event expression over the
// instance's recorded symbol history with the §4 denotational
// semantics and compares the verdicts. It implements Options
// .ShadowOracle; a divergence is a bug in the automaton pipeline.
func (e *Engine) shadowCheck(oid store.OID, t *Trigger, act *store.TrigActivation, accepted bool) error {
	e.stats.shadowChecks.Add(1)
	var hist []int
	if t.View == schema.WholeView {
		e.wholeMu.Lock()
		hist = append([]int(nil), e.wholeShadow[instanceKey{oid, t.Res.Name}]...)
		e.wholeMu.Unlock()
	} else {
		hist = act.Shadow
	}
	want := algebra.Occurs(t.Res.Expr, hist)
	if want != accepted {
		return fmt.Errorf("engine: shadow oracle divergence: trigger %s at object %d: automaton=%v oracle=%v (history %v)",
			t.Res.Name, oid, accepted, want, hist)
	}
	return nil
}

func (e *Engine) recordHappening(oid store.OID, h event.Happening) {
	// Written once at open, read per happening: an atomic pointer, not
	// a mutex, so recording never serializes parallel posters.
	book := e.book.Load()
	if book == nil {
		return
	}
	book.Log(oid).Append(history.Entry{Kind: h.Kind, Symbol: -1, TxID: h.TxID, At: h.At})
}

// maskEnv resolves names during mask evaluation: declared formals
// (renamed to schema parameter names), the happening's parameters,
// the trigger's activation parameters, then the object's fields.
// Masks "may access the state of any object in the database" (§3.2)
// through object-reference field paths and calls; those reads are
// isolated (locked) but post no events.
type maskEnv struct {
	tx     *Tx
	self   store.OID
	rec    *store.Record
	cls    *Class
	params map[string]value.Value
	rename map[string]string
	trig   map[string]value.Value
}

func (m *maskEnv) Lookup(name string) (value.Value, bool) {
	if m.rename != nil {
		if schemaName, ok := m.rename[name]; ok {
			v, ok2 := m.params[schemaName]
			return v, ok2
		}
	}
	if v, ok := m.params[name]; ok {
		return v, true
	}
	if v, ok := m.trig[name]; ok {
		return v, true
	}
	if v, ok := m.rec.Fields[name]; ok {
		return v, true
	}
	return value.Null(), false
}

func (m *maskEnv) Field(base value.Value, name string) (value.Value, error) {
	return m.tx.maskDotField(base, name)
}

func (m *maskEnv) Call(name string, args []value.Value) (value.Value, error) {
	return m.tx.maskCall(m.cls, m.self, name, args)
}

// maskDotField resolves base.name during mask evaluation — shared by
// the interpreter env above and the compiled-program host (dispatch.go)
// so the two paths cannot drift.
func (tx *Tx) maskDotField(base value.Value, name string) (value.Value, error) {
	if base.Kind != value.KindID {
		return value.Null(), fmt.Errorf("engine: field access on %s (need an object reference)", base.Kind)
	}
	rec, err := tx.tx.Peek(store.OID(base.AsID()))
	if err != nil {
		return value.Null(), err
	}
	v, ok := rec.Fields[name]
	if !ok {
		return value.Null(), fmt.Errorf("engine: class %s has no field %q", rec.Class, name)
	}
	return v, nil
}

// maskCall invokes a mask function: class-level functions first, then
// the class's read methods, then engine-global functions. Shared by the
// interpreter env and the compiled-program host.
func (tx *Tx) maskCall(cls *Class, self store.OID, name string, args []value.Value) (value.Value, error) {
	if fn, ok := cls.Impl.Funcs[name]; ok {
		return fn(args)
	}
	if meth := cls.Schema.Method(name); meth != nil {
		if meth.Mode != schema.ModeRead {
			return value.Null(), fmt.Errorf("engine: mask calls update method %q; masks must be side-effect-free", name)
		}
		if len(args) != len(meth.Params) {
			return value.Null(), fmt.Errorf("engine: %s takes %d argument(s), got %d", name, len(meth.Params), len(args))
		}
		bound := make(map[string]value.Value, len(args))
		for i, a := range args {
			cv, err := coerce(a, meth.Params[i].Kind)
			if err != nil {
				return value.Null(), fmt.Errorf("engine: %s parameter %s: %w", name, meth.Params[i].Name, err)
			}
			bound[meth.Params[i].Name] = cv
		}
		// Invoked directly: a mask-time member call is a condition
		// evaluation, not an event-generating access (§7 requires
		// side-effect-free conditions).
		return cls.Impl.Methods[name](&MethodCtx{Tx: tx, Self: self, Args: bound})
	}
	tx.e.mu.RLock()
	fn, ok := tx.e.funcs[name]
	tx.e.mu.RUnlock()
	if ok {
		return fn(args)
	}
	return value.Null(), fmt.Errorf("engine: unknown mask function %q", name)
}

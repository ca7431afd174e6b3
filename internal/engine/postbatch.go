package engine

import (
	"fmt"

	"ode/internal/event"
	"ode/internal/mask"
	"ode/internal/schema"
	"ode/internal/store"
	"ode/internal/value"
)

// Batch posting: a single tx.Call pays costs that exist only because
// each call arrives alone — a map-backed argument bind, a per-call
// MethodCtx allocation, per-happening kind resolution, a flight stamp
// and a counter flush per happening. PostBatch amortizes them: a Batch
// is a columnar run of method calls against objects of one class, and
// posting it resolves each distinct method once into a cached plan
// (bound map, dense arena row, kind indices), then streams the entries
// through the same stepping kernel as tx.Call (Tx.step), flushing the
// engine-wide counters and one flight summary per phase once per batch.
//
// Semantics are exactly those of calling tx.Call for each entry in
// order and discarding the results: identical happenings, firing
// order, provenance, traces, and error positions; execution stops at
// the first error. The equivalence is tested against randomized
// workloads run both ways under the §4 shadow oracle.

// Batch is a columnar buffer of method calls against objects of one
// class. Build it with NewBatch and Call, post it with Tx.PostBatch or
// Database.PostBatch, and Reset it to reuse the buffer (and its cached
// posting plan) for the next batch. A Batch is not safe for concurrent
// use, and must not be posted again from inside a method or trigger
// action that a posting of the same Batch is executing.
type Batch struct {
	class  string
	oids   []store.OID
	meth   []uint16 // index into methods, per entry
	argOff []uint32 // prefix offsets into args; len(oids)+1 entries
	args   []value.Value
	// methods interns each distinct method name once; meth references
	// it so the per-entry footprint stays fixed-width.
	methods []string

	// Cached posting plan, rebuilt lazily when the batch first meets an
	// engine/class or after new methods were interned. Reset keeps it.
	planE *Engine
	planC *Class
	planN int
	plan  []batchMethod
	arena mask.Arena
}

// NewBatch returns an empty batch for objects of the named class, with
// room for capacity entries before the first append grows it.
func NewBatch(class string, capacity int) *Batch {
	return &Batch{
		class:  class,
		oids:   make([]store.OID, 0, capacity),
		meth:   make([]uint16, 0, capacity),
		argOff: append(make([]uint32, 0, capacity+1), 0),
	}
}

// Call appends one method call to the batch.
func (b *Batch) Call(oid store.OID, method string, args ...value.Value) {
	mi := -1
	for i, m := range b.methods {
		if m == method {
			mi = i
			break
		}
	}
	if mi < 0 {
		mi = len(b.methods)
		b.methods = append(b.methods, method)
	}
	b.oids = append(b.oids, oid)
	b.meth = append(b.meth, uint16(mi))
	b.args = append(b.args, args...)
	b.argOff = append(b.argOff, uint32(len(b.args)))
}

// Len returns the number of entries in the batch.
func (b *Batch) Len() int { return len(b.oids) }

// Class returns the class the batch posts against.
func (b *Batch) Class() string { return b.class }

// Entry returns entry i: the target OID, the method name, and the
// argument run (aliasing the batch's pool — callers must not mutate
// or retain it past the batch's next Reset). The partition router uses
// it to re-post entries into per-partition batches.
func (b *Batch) Entry(i int) (store.OID, string, []value.Value) {
	return b.oids[i], b.methods[b.meth[i]], b.args[b.argOff[i]:b.argOff[i+1]]
}

// Reset empties the batch for reuse, keeping the interned method names
// and the cached posting plan — a steady-state fill/post/Reset cycle
// allocates nothing.
func (b *Batch) Reset() {
	b.oids = b.oids[:0]
	b.meth = b.meth[:0]
	b.args = b.args[:0]
	b.argOff = b.argOff[:1]
}

// batchPhase is the posting plan for one phase (before/after) of one
// method, or for one timer cohort's tick: the resolved kind and the
// happenings posted since the last flush, summarized as one StageBatch
// flight record (per-event stamping would dominate the loop; see
// obs.StageBatch).
type batchPhase struct {
	kind   event.Kind
	kindIx int
	// idle marks a kind no trigger of the class listens on (and no
	// combined monitor steps).
	idle  bool
	count uint64
}

// newPhase resolves kind against the class alphabet.
func newPhase(c *Class, kind event.Kind) (batchPhase, error) {
	kix := c.Res.Alphabet.KindIndex(kind)
	if kix < 0 {
		return batchPhase{}, fmt.Errorf("engine: class %s cannot experience %s", c.Schema.Name, kind)
	}
	return batchPhase{kind: kind, kindIx: kix, idle: len(c.dispatch[kix]) == 0 && c.monitor == nil}, nil
}

// postPhase posts one happening of a prepared phase. A happening no
// trigger listens on and no observer (history book, tracer) can see
// reduces to its counts; skipping the step saves real time on
// before-kinds, which most triggers ignore.
func (tx *Tx) postPhase(c *Class, ph *batchPhase, oid store.OID, rec *store.Record, h *event.Happening) (bool, error) {
	ph.count++
	if ph.idle && tx.e.book.Load() == nil && tx.e.traceBox.Load() == nil {
		tx.counts.happenings++
		return false, nil
	}
	return tx.step(c, ph.kindIx, oid, rec, h, nil)
}

// flushPhase publishes a phase's happenings since the last flush: the
// class count and one StageBatch flight summary.
func (tx *Tx) flushPhase(c *Class, ph *batchPhase, atNs int64) {
	if ph.count == 0 {
		return
	}
	c.met.HappeningN(ph.count)
	tx.e.flightBatch(atNs, tx.tx.ID(), c.nameID, c.kindIDs[ph.kindIx], ph.count)
	ph.count = 0
}

// batchMethod is the cached posting plan for one interned method.
type batchMethod struct {
	name string
	m    *schema.Method
	impl MethodImpl
	// bound and dense are overwritten in place per entry (all entries
	// of a method bind the same parameter names); dense lives in the
	// batch arena. A firing replaces bound, because its actions may
	// keep the map (ActionCtx.EventParams).
	bound         map[string]value.Value
	dense         []value.Value
	mctx          MethodCtx
	before, after batchPhase
	// err records a plan-time failure (unknown method, kind outside the
	// alphabet), reported when the first entry using the method
	// executes — the position tx.Call would report it from. errStep
	// marks errors tx.Call surfaces through propagate (aborting).
	err     error
	errStep bool
}

// buildPlan resolves every interned method against the engine/class
// pair. Plan errors are recorded per method, not returned: a batch may
// carry entries for a bad method that execution never reaches.
func (b *Batch) buildPlan(e *Engine, c *Class) {
	b.planE, b.planC, b.planN = e, c, len(b.methods)
	b.arena.Reset()
	b.plan = make([]batchMethod, len(b.methods))
	for i, name := range b.methods {
		bm := &b.plan[i]
		bm.name = name
		m := c.Schema.Method(name)
		if m == nil {
			bm.err = fmt.Errorf("engine: class %s has no method %q", c.Schema.Name, name)
			continue
		}
		bm.m = m
		bm.impl = c.Impl.Methods[name]
		if len(m.Params) > 0 {
			bm.bound = make(map[string]value.Value, len(m.Params))
			bm.dense = b.arena.Row(len(m.Params))
		}
		var err error
		if bm.before, err = newPhase(c, event.MethodKind(event.Before, name)); err == nil {
			bm.after, err = newPhase(c, event.MethodKind(event.After, name))
		}
		if err != nil {
			// Unreachable for a schema method (the alphabet carries a
			// before/after pair per method), but keep tx.Call's report.
			bm.err, bm.errStep = err, true
		}
	}
}

// PostBatch executes the batch's method calls in order within this
// transaction, exactly as tx.Call would, stopping at the first error.
// Return values of the methods are discarded. See Batch for the
// reuse/aliasing rules; like every Tx operation it must run on the
// transaction's goroutine.
func (tx *Tx) PostBatch(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	c := tx.e.Class(b.class)
	if c == nil {
		return fmt.Errorf("engine: unregistered class %q", b.class)
	}
	if b.planE != tx.e || b.planC != c || b.planN != len(b.methods) {
		b.buildPlan(tx.e, c)
	}

	// One timestamp per batch: the virtual clock only advances between
	// transactions, so every happening of this transaction already
	// shares it.
	now := tx.e.clk.Now()
	txid := tx.tx.ID()
	defer tx.flushBatch(c, b, now.UnixNano())

	for i := range b.oids {
		bm := &b.plan[b.meth[i]]
		if bm.err != nil {
			if bm.errStep {
				return tx.propagate(bm.err)
			}
			return bm.err
		}
		rec, err := tx.batchAccess(b.oids[i])
		if err != nil {
			return err
		}
		if rec.Class != b.class {
			return fmt.Errorf("engine: batch for class %s posted to object %d of class %s",
				b.class, b.oids[i], rec.Class)
		}
		args := b.args[b.argOff[i]:b.argOff[i+1]]
		if len(args) != len(bm.m.Params) {
			return fmt.Errorf("engine: %s.%s takes %d argument(s), got %d",
				rec.Class, bm.name, len(bm.m.Params), len(args))
		}
		bound := bm.bound
		for j := range args {
			cv, err := coerce(args[j], bm.m.Params[j].Kind)
			if err != nil {
				return fmt.Errorf("engine: %s.%s parameter %s: %w",
					rec.Class, bm.name, bm.m.Params[j].Name, err)
			}
			bound[bm.m.Params[j].Name] = cv
			bm.dense[j] = cv
		}

		h := event.Happening{
			Kind:   bm.before.kind,
			Params: bound,
			Dense:  bm.dense,
			TxID:   txid,
			At:     now,
		}
		fired, err := tx.postPhase(c, &bm.before, b.oids[i], rec, &h)
		bm.detach(fired)
		if err != nil {
			return tx.propagate(err)
		}

		// The MethodCtx lives on the plan and is reused by address;
		// save/restore by value keeps re-entrant calls of the same
		// method (an action invoking it via tx.Call) correct. Like the
		// trigger ActionCtx, implementations must not retain the pointer
		// past their return.
		saved := bm.mctx
		bm.mctx = MethodCtx{Tx: tx, Self: b.oids[i], Args: bound}
		_, err = bm.impl(&bm.mctx)
		bm.mctx = saved
		if err != nil {
			return tx.propagate(err)
		}

		h.Kind = bm.after.kind
		fired, err = tx.postPhase(c, &bm.after, b.oids[i], rec, &h)
		bm.detach(fired)
		if err != nil {
			return tx.propagate(err)
		}
	}
	return nil
}

// detach gives later entries a fresh parameter map once an entry's
// happening fired: the actions may keep the current one. The firing
// path is allowed to allocate — the zero-allocation promise covers the
// non-firing common case.
func (bm *batchMethod) detach(fired bool) {
	if fired && bm.bound != nil {
		bm.bound = make(map[string]value.Value, len(bm.m.Params))
	}
}

// batchAccess is tx.access with the transaction's single-entry record
// cache primed, so consecutive batch entries (and the field accesses
// of the method implementations they run) hitting the same object skip
// the lock-table and store lookups.
func (tx *Tx) batchAccess(oid store.OID) (*store.Record, error) {
	if tx.cachedRec != nil && oid == tx.cachedOID {
		return tx.cachedRec, nil
	}
	rec, err := tx.access(oid)
	if err != nil {
		return nil, err
	}
	tx.cachedOID, tx.cachedRec = oid, rec
	return rec, nil
}

// flushBatch publishes the batch's accumulated statistics: the
// engine-wide counters and each phase's StageBatch summary.
func (tx *Tx) flushBatch(c *Class, b *Batch, atNs int64) {
	for pi := range b.plan {
		tx.flushPhase(c, &b.plan[pi].before, atNs)
		tx.flushPhase(c, &b.plan[pi].after, atNs)
	}
	tx.flushCounts()
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"ode"
)

// bank-partitioned: two single-writer partitions, one producer, and a
// small hot set of accounts that fits in cache, chosen with Zipf skew.
// Transfers withdraw inside the source partition and relay the deposit
// to the other one; read-only balance calls run beside them; split
// batches post zero-sum pairs across both partitions; a Drain barrier
// closes every partDrainEvery operations.
const (
	partN          = 2
	partHot        = 512     // accounts per partition
	partOpsGen     = 1 << 16 // generated operations, replayed cyclically
	partBatchesGen = 256     // generated batches, replayed cyclically
	partBatchPairs = 32      // deposit/withdraw pairs per batch
	partDrainEvery = 64
	partSetupReps  = 15 // set-up is short, so more runs steady its median
	partZipfS      = 1.2

	largeWithdraw = 998 // Large fires on a withdrawal above this: rarely, so the feed stays small
)

type partOpKind uint8

const (
	opTransfer partOpKind = iota
	opRead
	opPartBatch
)

type partOp struct {
	kind partOpKind
	p    int8  // source partition
	a, b int16 // account in p, account in the other partition
	amt  int32
}

// partCall is one batch entry: account index across both partitions
// (p*hot + i) and a signed amount.
type partCall struct {
	acct int32
	amt  int32
}

type partInputs struct {
	ops     []partOp
	batches [][]partCall
}

func genPartitioned(seed int64, hot int) partInputs {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, partZipfS, 1, uint64(hot-1))
	pick := func() int16 { return int16(zipf.Uint64()) }
	amount := func() int32 { return int32(1 + rng.Intn(1000)) }
	var in partInputs
	in.ops = make([]partOp, partOpsGen)
	for i := range in.ops {
		op := partOp{p: int8(rng.Intn(partN)), a: pick(), b: pick(), amt: amount()}
		switch k := rng.Intn(100); {
		case k < 55:
			op.kind = opTransfer
		case k < 94:
			op.kind = opRead
		default:
			op.kind = opPartBatch
		}
		in.ops[i] = op
	}
	for i := 0; i < partBatchesGen; i++ {
		var batch []partCall
		for j := 0; j < partBatchPairs; j++ {
			amt := amount()
			batch = append(batch,
				partCall{int32(rng.Intn(partN)*hot) + int32(pick()), amt},
				partCall{int32(rng.Intn(partN)*hot) + int32(pick()), -amt})
		}
		in.batches = append(in.batches, batch)
	}
	return in
}

// partRef is the reference model: balances and Large firings.
type partRef struct {
	bal     []int64
	firings int
	batches int
}

func (r *partRef) withdraw(acct int, amt int32) {
	r.bal[acct] -= int64(amt)
	if amt > largeWithdraw {
		r.firings++
	}
}

func (r *partRef) apply(op partOp, in *partInputs, hot int) {
	switch op.kind {
	case opTransfer:
		r.withdraw(int(op.p)*hot+int(op.a), op.amt)
		r.bal[(1-int(op.p))*hot+int(op.b)] += int64(op.amt)
	case opPartBatch:
		for _, c := range in.batches[r.batches%len(in.batches)] {
			if c.amt > 0 {
				r.bal[c.acct] += int64(c.amt)
			} else {
				r.withdraw(int(c.acct), -c.amt)
			}
		}
		r.batches++
	}
}

func registerPartAccount(db *ode.Database) error {
	return accountClass(db).
		Trigger(fmt.Sprintf("Large(): perpetual after withdraw(a) && a > %d ==> alert", largeWithdraw), nop).
		Register()
}

type partDB struct {
	db    *ode.Database
	oids  []ode.OID // p*hot + i
	regMs float64
}

func setupPartitioned(hot int) (partDB, error) {
	db, err := ode.Open(ode.Options{Partitions: partN})
	if err != nil {
		return partDB{}, err
	}
	t1 := time.Now()
	if err := registerPartAccount(db); err != nil {
		db.Close()
		return partDB{}, err
	}
	regMs := float64(time.Since(t1)) / 1e6
	oids := make([]ode.OID, partN*hot)
	for p := 0; p < partN; p++ {
		err := db.TransactOn(p, func(tx *ode.Tx) error {
			for i := 0; i < hot; i++ {
				oid, err := tx.NewObject("account", nil)
				if err != nil {
					return err
				}
				if err := tx.Activate(oid, "Large"); err != nil {
					return err
				}
				oids[p*hot+i] = oid
			}
			return nil
		})
		if err != nil {
			db.Close()
			return partDB{}, err
		}
	}
	return partDB{db, oids, regMs}, nil
}

func runPartitioned(cfg config) (*report, error) {
	rep := &report{workload: "bank-partitioned"}
	hot := partHot / cfg.scale
	in := genPartitioned(cfg.seed, hot)

	cacheBefore, err := compileCache()
	if err != nil {
		return nil, err
	}
	var regMs []float64
	pd, setup, err := medianSetup(partSetupReps, func(int) (partDB, error) {
		s, err := setupPartitioned(hot)
		regMs = append(regMs, s.regMs)
		return s, err
	}, func(s partDB) { s.db.Close() })
	if err != nil {
		return nil, fmt.Errorf("bank-partitioned setup: %w", err)
	}
	db := pd.db
	defer db.Close()
	setup.add(rep)
	statsSetup := db.Stats()
	addCompile(rep, regMs, cacheBefore, statsSetup)

	b := ode.NewBatch("account", 2*partBatchPairs)
	rec := &recorder{}
	var (
		txLat        latHist // µs, measured untraced TransactOn calls
		batchLat     latHist // µs, measured untraced PostBatch calls
		batchNs      time.Duration
		batchCalls   int
		drainNs      time.Duration
		drains       int
		ops, batches int
		txDone       int               // measured transactions
		samples      = newOpSamples(6) // by partOpKind, +3 when the operation opens with a Drain
		lostRelay    = cfg.loseRelay
	)
	call := func(r *recorder, parent int32, tx *ode.Tx, oid ode.OID, method string, args ...ode.Value) error {
		cs := r.begin(spCall, parent)
		r.setTx(cs, tx.ID())
		_, err := tx.Call(oid, method, args...)
		r.end(cs)
		return err
	}
	// drive runs the operation stream through one phase.
	drive := func(ph *phase) error {
		for start := ops; ; ops++ {
			now := time.Now()
			if ph.over(now, ops-start) {
				return nil
			}
			traced := ph.traced(ops)
			var r *recorder
			if traced {
				r = rec
			}
			op := r.begin(spOp, -1)
			opStart := now
			drained := ops > 0 && ops%partDrainEvery == 0
			if drained {
				sp := r.begin(spDrain, op)
				db.Drain()
				r.end(sp)
				if traced {
					drainNs += time.Since(now)
					drains++
				}
				now = time.Now()
			}
			o := in.ops[ops%len(in.ops)]
			kind := int(o.kind)
			if drained {
				kind += 3
			}
			if o.kind == opPartBatch {
				b.Reset()
				for _, c := range in.batches[batches%len(in.batches)] {
					if c.amt > 0 {
						b.Call(pd.oids[c.acct], "deposit", ode.Int(int64(c.amt)))
					} else {
						b.Call(pd.oids[c.acct], "withdraw", ode.Int(int64(-c.amt)))
					}
				}
				batches++
				sp := r.begin(spPartBatch, op)
				err := db.PostBatch(b)
				r.end(sp)
				if err != nil {
					return fmt.Errorf("partitioned PostBatch: %w", err)
				}
				switch {
				case !ph.measure:
				case traced:
					batchNs += time.Since(now)
					batchCalls += b.Len()
				default:
					batchLat.add(us(time.Since(now)))
				}
				r.end(op)
				samples.done(ph, r, op, kind, opStart)
				continue
			}
			p := int(o.p)
			src := pd.oids[p*hot+int(o.a)]
			sp := r.begin(spTx, op)
			err := db.TransactOn(p, func(tx *ode.Tx) error {
				r.setTx(sp, tx.ID())
				if o.kind == opRead {
					return call(r, sp, tx, src, "balance")
				}
				return call(r, sp, tx, src, "withdraw", ode.Int(int64(o.amt)))
			})
			r.end(sp)
			took := us(time.Since(now))
			if err != nil {
				return fmt.Errorf("TransactOn: %w", err)
			}
			if ph.measure {
				txDone++
				if !traced {
					txLat.add(took)
				}
			}
			if o.kind == opTransfer {
				if lostRelay {
					lostRelay = false
				} else {
					sp := r.begin(spRelay, op)
					db.RelayCall(p, pd.oids[(1-p)*hot+int(o.b)], "deposit", ode.Int(int64(o.amt)))
					r.end(sp)
				}
			}
			r.end(op)
			samples.done(ph, r, op, kind, opStart)
		}
	}
	if err := drive(newWarmup(cfg)); err != nil {
		return nil, err
	}
	db.Drain()
	statsBefore := db.Stats()
	gcBefore := readGC()
	ph := newPhase(cfg)
	rec.t0 = ph.t0
	measuredFrom := ops
	if err := drive(ph); err != nil {
		return nil, err
	}
	db.Drain()
	wall, cpu := ph.elapsed()
	statsAfter := db.Stats()
	gcAfter, liveMB := endGC()
	delta := ode.StatsDelta(statsAfter, statsBefore)
	rep.attempted = ops - measuredFrom

	addRates(rep, txDone, delta.Happenings, wall, cpu)
	rep.add("tx_p50_us", txLat.quantile(0.5), "us", txLat.n, "transactions")
	rep.add("tx_p99_us", txLat.quantile(0.99), "us", txLat.n, "transactions")
	rep.add("batch_p50_us", batchLat.quantile(0.5), "us", batchLat.n, "batches")
	rep.add("batch_p99_us", batchLat.quantile(0.99), "us", batchLat.n, "batches")
	rep.add("live_heap_mb", liveMB, "MB", 0, "")
	rep.add("fail_ratio", 0, "ratio", rep.attempted, "attempted")

	// Correctness after the final Drain.
	ref := partRef{bal: make([]int64, partN*hot)}
	for i := 0; i < ops; i++ {
		ref.apply(in.ops[i%len(in.ops)], &in, hot)
	}
	parts := db.Parts()
	relayErrs := parts.RelayErrors()
	rep.check(len(relayErrs) == 0, "relay errors: %v", relayErrs)
	var total int64
	mismatched := 0
	for i, oid := range pd.oids {
		r, ok := parts.Partition(db.PartitionOf(oid)).Engine().Store().GetCommitted(oid)
		if !ok {
			return nil, fmt.Errorf("account %d missing from the committed view", oid)
		}
		v := r.Fields["bal"].AsInt()
		total += v
		if v != ref.bal[i] {
			mismatched++
		}
	}
	rep.check(total == 0, "money not conserved: balances sum to %d", total)
	rep.check(mismatched == 0, "%d account balances differ from the reference", mismatched)
	feed, _ := db.Firings(0, 0)
	rep.check(len(feed) == ref.firings, "feed holds %d Large firings, reference %d", len(feed), ref.firings)
	rep.check(statsAfter.Firings == uint64(ref.firings), "Large fired %d times, reference %d", statsAfter.Firings, ref.firings)
	var sum ode.Stats
	per := parts.PartitionStats()
	minH, maxH := per[0].Happenings, per[0].Happenings
	for _, s := range per {
		sum.TxBegun += s.TxBegun
		sum.TxCommitted += s.TxCommitted
		sum.Happenings += s.Happenings
		sum.Steps += s.Steps
		sum.MaskEvals += s.MaskEvals
		sum.Firings += s.Firings
		minH, maxH = min(minH, s.Happenings), max(maxH, s.Happenings)
	}
	final := db.Stats()
	rep.check(sum.TxBegun == final.TxBegun && sum.TxCommitted == final.TxCommitted &&
		sum.Happenings == final.Happenings && sum.Steps == final.Steps &&
		sum.MaskEvals == final.MaskEvals && sum.Firings == final.Firings,
		"PartitionStats do not sum to Stats: %+v vs %+v", sum, final)
	rep.counts = runCounts(statsAfter, statsSetup, uint64(len(feed)))

	addEngineCounts(rep, delta, gcBefore, gcAfter)
	addFeedRecords(rep, uint64(len(feed)), rep.counts)
	rep.add("part.skew", ratio(float64(maxH), float64(minH)), "ratio", int(final.Happenings), "happenings")
	rep.add("part.relay_errors", float64(len(relayErrs)), "count", 0, "")
	if cfg.trace {
		rep.add("part.postbatch_ns_per_happening", ratio(float64(batchNs), float64(batchCalls)), "ns", batchCalls, "posted calls")
		rep.add("part.drain_us", ratio(us(drainNs), float64(drains)), "us", drains, "drains")
		rep.spans = []spanSet{{"producer", rec.spans}}
		addSplit(rep, split(rep.spans), samples)
	}
	return rep, nil
}

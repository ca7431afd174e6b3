package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ode"
	"ode/internal/egress"
)

// bank-durable: a persistent database with default group commit and
// the durable firing feed, two closed-loop clients that each wait for
// their commit, and a pump goroutine delivering firings through a
// durable cursor to an in-process receiver.
const (
	durAccounts    = 10000
	durClients     = 2
	durCallsPerTx  = 4
	durTxPerClient = 1 << 15 // generated transactions per client, replayed cyclically
	durSetupReps   = 9
	durSetupChunk  = 1000 // accounts created per setup transaction

	bigWithdraw     = 975 // Big fires on a withdrawal above this
	reboundDeposit  = 980 // Rebound arms on a deposit above this...
	reboundWithdraw = 950 // ...and fires on each later withdrawal above this
)

// durCall is one generated call: a positive amount deposits, a
// negative one withdraws.
type durCall struct {
	acct   int32
	amount int32
}

type durTx [durCallsPerTx]durCall

// accountClass declares the bank account class both bank workloads
// use; the caller adds its triggers and registers it.
func accountClass(db *ode.Database) *ode.ClassBuilder {
	return db.NewClass("account").
		Field("bal", ode.KindInt, ode.Int(0)).
		Update("deposit", func(ctx *ode.MethodCtx) (ode.Value, error) {
			b, err := ctx.Get("bal")
			if err != nil {
				return ode.Null(), err
			}
			return ode.Null(), ctx.Set("bal", ode.Int(b.AsInt()+ctx.Arg("n").AsInt()))
		}, ode.P("n", ode.KindInt)).
		Update("withdraw", func(ctx *ode.MethodCtx) (ode.Value, error) {
			b, err := ctx.Get("bal")
			if err != nil {
				return ode.Null(), err
			}
			return ode.Null(), ctx.Set("bal", ode.Int(b.AsInt()-ctx.Arg("a").AsInt()))
		}, ode.P("a", ode.KindInt)).
		Read("balance", func(ctx *ode.MethodCtx) (ode.Value, error) { return ctx.Get("bal") })
}

// nop is the trigger action: the benchmark observes firings through
// the feed and the engine's counters.
func nop(*ode.ActionCtx) error { return nil }

func registerAccount(db *ode.Database) error {
	return accountClass(db).
		Trigger(fmt.Sprintf("Big(): perpetual after withdraw(a) && a > %d ==> alert", bigWithdraw), nop).
		Trigger(fmt.Sprintf("Rebound(): perpetual relative(after deposit(n) && n > %d, after withdraw(a) && a > %d) ==> alert",
			reboundDeposit, reboundWithdraw), nop).
		Register()
}

// genDurable generates each client's transactions over its own half
// of the accounts.
func genDurable(seed int64, accounts int) [durClients][]durTx {
	rng := rand.New(rand.NewSource(seed))
	var out [durClients][]durTx
	half := accounts / durClients
	for c := range out {
		out[c] = make([]durTx, durTxPerClient)
		for i := range out[c] {
			for j := range out[c][i] {
				amt := int32(1 + rng.Intn(1000))
				if rng.Intn(2) == 0 {
					amt = -amt
				}
				out[c][i][j] = durCall{acct: int32(c*half + rng.Intn(half)), amount: amt}
			}
		}
	}
	return out
}

// durRef is the reference model: balances and firings per trigger.
type durRef struct {
	bal     []int64
	armed   []bool
	firings map[string]int
}

func (r *durRef) apply(t *durTx) {
	for _, c := range t {
		if c.amount > 0 {
			r.bal[c.acct] += int64(c.amount)
			if c.amount > reboundDeposit {
				r.armed[c.acct] = true
			}
			continue
		}
		a := -c.amount
		r.bal[c.acct] -= int64(a)
		if a > bigWithdraw {
			r.firings["Big"]++
		}
		if a > reboundWithdraw && r.armed[c.acct] {
			r.firings["Rebound"]++
		}
	}
}

// receiver is the in-process webhook endpoint: it applies each
// idempotency key once and times each transaction's first firing.
type receiver struct {
	mu          sync.Mutex
	start       map[uint64]time.Time // Transact call time of each measured, untraced transaction
	notified    map[uint64]bool
	seen        map[string]bool
	perTrigger  map[string]int
	applied     int
	redelivered int
	deliveries  int
	dropAt      int // planted fault: delivery number dropAt is acknowledged but not applied
	notify      latHist
}

func (r *receiver) begin(id uint64, at time.Time) {
	r.mu.Lock()
	r.start[id] = at
	r.mu.Unlock()
}

func (r *receiver) send(rec ode.FiringRecord, key string) error {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deliveries++
	if r.deliveries == r.dropAt {
		return nil
	}
	if r.seen[key] {
		r.redelivered++
		return nil
	}
	r.seen[key] = true
	r.applied++
	r.perTrigger[rec.Trigger]++
	if !r.notified[rec.TxID] {
		if at, ok := r.start[rec.TxID]; ok {
			r.notified[rec.TxID] = true
			r.notify.add(us(now.Sub(at)))
		}
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// openAccounts opens dir, registers the class and rearms timers: the
// sequence a restarting application runs. It also returns how long
// the registration took, in ms.
func openAccounts(dir string) (*ode.Database, float64, error) {
	db, err := ode.Open(ode.Options{Dir: dir})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := registerAccount(db); err != nil {
		db.Close()
		return nil, 0, err
	}
	regMs := float64(time.Since(t0)) / 1e6
	if err := db.RearmTimers(); err != nil {
		db.Close()
		return nil, 0, err
	}
	return db, regMs, nil
}

type durDB struct {
	db    *ode.Database
	dir   string
	oids  []ode.OID
	regMs float64
}

func setupDurable(dir string, accounts int) (durDB, error) {
	if err := os.RemoveAll(dir); err != nil {
		return durDB{}, err
	}
	db, regMs, err := openAccounts(dir)
	if err != nil {
		return durDB{}, err
	}
	oids := make([]ode.OID, 0, accounts)
	for len(oids) < accounts {
		n := min(durSetupChunk, accounts-len(oids))
		err := db.Transact(func(tx *ode.Tx) error {
			for i := 0; i < n; i++ {
				oid, err := tx.NewObject("account", nil)
				if err != nil {
					return err
				}
				if err := tx.Activate(oid, "Big"); err != nil {
					return err
				}
				if err := tx.Activate(oid, "Rebound"); err != nil {
					return err
				}
				oids = append(oids, oid)
			}
			return nil
		})
		if err != nil {
			db.Close()
			return durDB{}, err
		}
	}
	return durDB{db, dir, oids, regMs}, nil
}

// committedBalances reads every account's committed balance from the
// lock-free committed view.
func committedBalances(db *ode.Database, oids []ode.OID) ([]int64, error) {
	out := make([]int64, len(oids))
	st := db.Engine().Store()
	for i, oid := range oids {
		rec, ok := st.GetCommitted(oid)
		if !ok {
			return nil, fmt.Errorf("account %d missing from the committed view", oid)
		}
		out[i] = rec.Fields["bal"].AsInt()
	}
	return out, nil
}

func balanceMismatches(got, want []int64) int {
	n := 0
	for i := range want {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}

func runDurable(cfg config) (*report, error) {
	rep := &report{workload: "bank-durable"}
	accounts := durAccounts / cfg.scale
	root := filepath.Join(cfg.data, fmt.Sprintf("bank-durable-%d", os.Getpid()))
	defer os.RemoveAll(root)
	inputs := genDurable(cfg.seed, accounts)

	cacheBefore, err := compileCache()
	if err != nil {
		return nil, err
	}
	var regMs []float64
	d, setup, err := medianSetup(durSetupReps, func(i int) (durDB, error) {
		dd, err := setupDurable(filepath.Join(root, fmt.Sprintf("db%d", i)), accounts)
		regMs = append(regMs, dd.regMs)
		return dd, err
	}, func(dd durDB) { dd.db.Close(); os.RemoveAll(dd.dir) })
	if err != nil {
		return nil, fmt.Errorf("bank-durable setup: %w", err)
	}
	db := d.db
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()
	setup.add(rep)
	statsSetup := db.Stats()
	addCompile(rep, regMs, cacheBefore, statsSetup)

	rcv := &receiver{
		start: map[uint64]time.Time{}, notified: map[uint64]bool{},
		seen: map[string]bool{}, perTrigger: map[string]int{},
	}
	if cfg.dropRecord {
		rcv.dropAt = 1
	}
	cur, err := egress.OpenCursor(filepath.Join(root, "cursor", "cursor"), nil)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	dlv := egress.NewDeliverer(db.FeedSource(), egress.SenderFunc(rcv.send), egress.DelivererOptions{Cursor: cur})
	src := db.FeedSource()

	type clientOut struct {
		next, done, failed int
		lat                latHist // µs, measured untraced transactions
		samples            *opSamples
		rec                *recorder
	}
	outs := make([]clientOut, durClients)
	for c := range outs {
		outs[c].samples = newOpSamples(1)
	}
	// wake tells the pump that a transaction committed, as a commit
	// notification would; the pump sleeps until then, so its CPU time
	// follows the commits and not the wall clock.
	wake := make(chan struct{}, 1)
	// runClients drives both closed-loop clients through one phase;
	// each resumes its transaction stream where the last phase left it.
	runClients := func(ph *phase) {
		var wg sync.WaitGroup
		for c := range outs {
			wg.Add(1)
			go func(o *clientOut, txs []durTx) {
				defer wg.Done()
				for start := o.next; ; o.next++ {
					now := time.Now()
					if ph.over(now, o.next-start) {
						return
					}
					traced := ph.traced(o.next)
					var rec *recorder
					if traced {
						rec = o.rec
					}
					t := &txs[o.next%len(txs)]
					op := rec.begin(spOp, -1)
					sp := rec.begin(spTx, op)
					err := db.Transact(func(tx *ode.Tx) error {
						id := tx.ID()
						if ph.measure && !traced {
							rcv.begin(id, now)
						}
						rec.setTx(sp, id)
						for _, call := range t {
							cs := rec.begin(spCall, sp)
							rec.setTx(cs, id)
							var err error
							if call.amount > 0 {
								_, err = tx.Call(d.oids[call.acct], "deposit", ode.Int(int64(call.amount)))
							} else {
								_, err = tx.Call(d.oids[call.acct], "withdraw", ode.Int(int64(-call.amount)))
							}
							rec.end(cs)
							if err != nil {
								return err
							}
						}
						return nil
					})
					rec.end(sp)
					rec.end(op)
					o.samples.done(ph, rec, op, 0, now)
					took := us(time.Since(now))
					select {
					case wake <- struct{}{}:
					default:
					}
					switch {
					case err != nil:
						o.failed++
					case ph.measure && !traced:
						o.lat.add(took)
					}
					if ph.measure {
						o.done++
					}
				}
			}(&outs[c], inputs[c])
		}
		wg.Wait()
	}

	var curPh atomic.Pointer[phase]
	curPh.Store(newWarmup(cfg))
	// The pump loop: after each wake-up, deliver whatever the feed holds.
	stop := make(chan struct{})
	var pwg sync.WaitGroup
	var stopOnce sync.Once
	stopPump := func() {
		stopOnce.Do(func() { close(stop) })
		pwg.Wait()
	}
	defer stopPump()
	pumpRec := &recorder{}
	var pumpNs time.Duration
	var pumpRecs, lagMax uint64
	var pumpErrs int
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		for {
			select {
			case <-stop:
				return
			case <-wake:
			}
			for {
				now := time.Now()
				ph := curPh.Load()
				if lag := src.FiringHead() - dlv.Pos(); lag > lagMax && ph.measure {
					lagMax = lag
				}
				var rec *recorder
				if ph.trace {
					rec = pumpRec // every pump call: its spans are reported, not summed
				}
				sp := rec.begin(spPump, -1)
				n, err := dlv.Pump(0)
				if err != nil {
					pumpErrs++
				}
				if n == 0 {
					if rec != nil {
						rec.spans = rec.spans[:sp]
					}
					break
				}
				rec.end(sp)
				if ph.measure {
					pumpNs += time.Since(now)
					pumpRecs += uint64(n)
				}
			}
		}
	}()
	runClients(curPh.Load())
	bytesBefore, err := dirBytes(d.dir)
	if err != nil {
		return nil, err
	}
	statsBefore := db.Stats()
	gcBefore := readGC()
	ph := newPhase(cfg)
	for c := range outs {
		outs[c].rec = &recorder{t0: ph.t0}
	}
	pumpRec.t0 = ph.t0
	curPh.Store(ph)
	runClients(ph)
	wall, cpu := ph.elapsed()
	stopPump()
	// Drain the feed: every committed firing must reach the receiver.
	for dlv.Pos() < src.FiringHead() {
		if _, err := dlv.Pump(0); err != nil {
			pumpErrs++
		}
	}
	statsAfter := db.Stats()
	rcv.mu.Lock()
	rcv.start = nil
	rcv.mu.Unlock()
	gcAfter, liveMB := endGC()

	var lat latHist
	samples := newOpSamples(1)
	committed, replayed := 0, 0
	ref := durRef{bal: make([]int64, accounts), armed: make([]bool, accounts), firings: map[string]int{}}
	for c := range outs {
		o := &outs[c]
		rep.attempted += o.done
		rep.failed += o.failed
		committed += o.done
		replayed += o.next
		lat.merge(&o.lat)
		samples.merge(o.samples)
		for i := 0; i < o.next; i++ {
			ref.apply(&inputs[c][i%len(inputs[c])])
		}
	}
	if rep.failed > 0 {
		return nil, fmt.Errorf("bank-durable: %d transactions failed; the reference model assumes none do", rep.failed)
	}
	delta := ode.StatsDelta(statsAfter, statsBefore)
	addRates(rep, committed, delta.Happenings, wall, cpu)
	rep.add("tx_p50_us", lat.quantile(0.5), "us", lat.n, "transactions")
	rep.add("tx_p99_us", lat.quantile(0.99), "us", lat.n, "transactions")
	rep.add("notify_p50_us", rcv.notify.quantile(0.5), "us", rcv.notify.n, "notified transactions")
	rep.add("notify_p99_us", rcv.notify.quantile(0.99), "us", rcv.notify.n, "notified transactions")
	rep.add("live_heap_mb", liveMB, "MB", 0, "")
	rep.add("fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted, "attempted")

	// Correctness: balances, the feed against the reference, and the
	// receiver against the feed.
	bal, err := committedBalances(db, d.oids)
	if err != nil {
		return nil, err
	}
	rep.check(balanceMismatches(bal, ref.bal) == 0, "%d account balances differ from the reference", balanceMismatches(bal, ref.bal))
	half := accounts / durClients
	for c := 0; c < durClients; c++ {
		var got, want int64
		for i := c * half; i < (c+1)*half; i++ {
			got += bal[i]
			want += ref.bal[i]
		}
		rep.check(got == want, "client %d balance sum %d, reference %d", c, got, want)
	}
	feed, head := db.Firings(0, 0)
	feedBy := map[string]int{}
	for _, f := range feed {
		feedBy[f.Trigger]++
	}
	for _, trig := range []string{"Big", "Rebound"} {
		rep.check(feedBy[trig] == ref.firings[trig], "feed holds %d %s firings, reference %d", feedBy[trig], trig, ref.firings[trig])
		rep.check(rcv.perTrigger[trig] == ref.firings[trig], "receiver applied %d %s firings, reference %d", rcv.perTrigger[trig], trig, ref.firings[trig])
	}
	missing := 0
	for _, f := range feed {
		if !rcv.seen[egress.KeyFor(f)] {
			missing++
		}
	}
	rep.check(missing == 0, "%d committed firings never reached the receiver", missing)
	rep.check(rcv.applied == len(feed), "receiver applied %d keys for %d feed records", rcv.applied, len(feed))
	rep.counts = runCounts(statsAfter, statsSetup, uint64(len(feed)))

	bytesAfter, err := dirBytes(d.dir)
	if err != nil {
		return nil, err
	}
	rep.add("disk_bytes_per_tx", ratio(float64(bytesAfter-bytesBefore), float64(committed)), "B", committed, "transactions")

	// Recovery: close, then time reopen → re-register → RearmTimers;
	// then checkpoint and time the reopen again.
	closed = true
	if err := db.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	db2, _, err := openAccounts(d.dir)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	recoverS := time.Since(t0).Seconds()
	verifyReopen(rep, db2, d.oids, bal, head, "reopen")
	t0 = time.Now()
	err = db2.Checkpoint()
	checkpointMs := float64(time.Since(t0)) / 1e6
	if cerr := db2.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	t0 = time.Now()
	db3, _, err := openAccounts(d.dir)
	if err != nil {
		return nil, fmt.Errorf("reopen after checkpoint: %w", err)
	}
	recoverCkptMs := float64(time.Since(t0)) / 1e6
	verifyReopen(rep, db3, d.oids, bal, head, "reopen after checkpoint")
	db3.Close()
	rep.add("recover_s", recoverS, "s", replayed, "transactions replayed")

	// Per-layer metrics.
	addEngineCounts(rep, delta, gcBefore, gcAfter)
	rep.add("store.checkpoint_ms", checkpointMs, "ms", 0, "")
	rep.add("store.recover_after_checkpoint_ms", recoverCkptMs, "ms", 0, "")
	rep.add("egress.pump_ns_per_record", ratio(float64(pumpNs), float64(pumpRecs)), "ns", int(pumpRecs), "records")
	rep.add("egress.lag_records_max", float64(lagMax), "records", 0, "")
	ds := dlv.Stats()
	rep.add("egress.retries", float64(ds.Retries), "count", int(ds.Attempts), "attempts")
	rep.add("egress.redeliveries", float64(rcv.redelivered), "count", rcv.deliveries, "deliveries")
	addFeedRecords(rep, uint64(len(feed)), rep.counts)
	rep.check(pumpErrs == 0, "deliverer reported %d pump errors", pumpErrs)
	if cfg.trace {
		var sets []spanSet
		for c := range outs {
			sets = append(sets, spanSet{fmt.Sprintf("client%d", c), outs[c].rec.spans})
		}
		sets = append(sets, spanSet{"pump", pumpRec.spans})
		rep.spans = sets
		addSplit(rep, split(sets), samples)
	}
	return rep, nil
}

// verifyReopen checks that a reopened database holds every
// acknowledged commit: the same balances and the same feed head.
func verifyReopen(rep *report, db *ode.Database, oids []ode.OID, want []int64, head uint64, what string) {
	bal, err := committedBalances(db, oids)
	if err != nil {
		rep.check(false, "%s: %v", what, err)
		return
	}
	rep.check(balanceMismatches(bal, want) == 0, "%s: %d balances differ from before close", what, balanceMismatches(bal, want))
	rep.check(db.FeedSource().FiringHead() == head, "%s: feed head %d, before close %d", what, db.FeedSource().FiringHead(), head)
}

// compileCache reads the process-wide compile cache counters through
// a scratch in-memory database.
func compileCache() (ode.Stats, error) {
	db, err := ode.Open(ode.Options{})
	if err != nil {
		return ode.Stats{}, err
	}
	defer db.Close()
	return db.Stats(), nil
}

// addCompile reports the class registration time (median over the
// setups) and the compile cache's hit ratio across them.
func addCompile(rep *report, regMs []float64, before, after ode.Stats) {
	rep.add("compile.register_ms", median(regMs), "ms", len(regMs), "registrations")
	hits := after.CompileCacheHits - before.CompileCacheHits
	misses := after.CompileCacheMisses - before.CompileCacheMisses
	rep.add("compile.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", int(hits+misses), "lookups")
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"ode"
	"ode/internal/egress"
)

// sensor-fleet: a volatile database, one producer, and a fleet larger
// than the CPU cache. Every sensWatchEvery-th sensor is watched: it
// arms the silent-sensor trigger and reports once per slot, except
// that flaky ones skip some slots. The other sensors report once per
// round of sensSlots slots. The clock ticks after each slot, so the
// silent-sensor trigger fires for the watched sensors that skipped it.
const (
	sensN          = 20480
	sensWatchEvery = 16
	sensSlots      = 8 // slots, and ticks, per round
	sensBatch      = 256
	sensRounds     = 8    // generated rounds, replayed cyclically
	sensSingles    = 4096 // generated single-call readings, replayed cyclically
	sensSingleGap  = 8    // one single-call transaction after every this many batches
	sensFlakyPct   = 5    // share of flaky watched sensors, in percent
	sensSetupReps  = 7
	sensChunk      = 2048 // sensors created per setup transaction

	critAbove  = 9990 // Crit fires on a reading above this
	swingHigh  = 9500 // Swing arms on a reading above this...
	swingLow   = 100  // ...and fires on each later reading below this
	sensPeriod = 10 * time.Minute
)

func watched(s int) bool { return s%sensWatchEvery == 0 }

type reading struct {
	sensor int32
	value  int32
}

// sensInputs holds the generated slots (sensRounds × sensSlots of
// them) and the single-call readings.
type sensInputs struct {
	slots   [][]reading
	singles []reading
}

func genSensor(seed int64, n int) sensInputs {
	rng := rand.New(rand.NewSource(seed))
	flaky := make([]bool, n)
	var watch, other []int
	for s := 0; s < n; s++ {
		if watched(s) {
			watch = append(watch, s)
			flaky[s] = rng.Intn(100) < sensFlakyPct
		} else {
			other = append(other, s)
		}
	}
	var in sensInputs
	for r := 0; r < sensRounds; r++ {
		perm := rng.Perm(len(other))
		per := (len(other) + sensSlots - 1) / sensSlots
		for k := 0; k < sensSlots; k++ {
			var slot []reading
			for _, i := range perm[min(k*per, len(perm)):min((k+1)*per, len(perm))] {
				slot = append(slot, reading{int32(other[i]), int32(rng.Intn(10000))})
			}
			for _, s := range watch {
				if flaky[s] && rng.Intn(2) == 0 {
					continue
				}
				slot = append(slot, reading{int32(s), int32(rng.Intn(10000))})
			}
			rng.Shuffle(len(slot), func(i, j int) { slot[i], slot[j] = slot[j], slot[i] })
			in.slots = append(in.slots, slot)
		}
	}
	for i := 0; i < sensSingles; i++ {
		in.singles = append(in.singles, reading{int32(rng.Intn(n)), int32(rng.Intn(10000))})
	}
	return in
}

type sensOpKind uint8

const (
	opBatch sensOpKind = iota
	opSingle
	opTick
)

// sensStream walks the generated inputs as a sequence of operations:
// the batches of a slot, a single-call transaction after every
// sensSingleGap batches, and a tick at the end of each slot. The run
// and the reference model walk the same stream.
type sensStream struct {
	in      *sensInputs
	slot    int
	pos     int
	batches int
	singles int
	single  bool // a single-call transaction is due
}

func (s *sensStream) next() (sensOpKind, []reading) {
	if s.single {
		s.single = false
		r := s.in.singles[s.singles%len(s.in.singles) : s.singles%len(s.in.singles)+1]
		s.singles++
		return opSingle, r
	}
	slot := s.in.slots[s.slot%len(s.in.slots)]
	if s.pos == len(slot) {
		s.slot++
		s.pos = 0
		return opTick, nil
	}
	end := min(s.pos+sensBatch, len(slot))
	b := slot[s.pos:end]
	s.pos = end
	s.batches++
	s.single = s.batches%sensSingleGap == 0
	return opBatch, b
}

// sensRef is the reference model of the three triggers.
type sensRef struct {
	armed    []bool // Swing has seen a high reading
	lastTick []bool // the sensor's latest happening is a tick
	firings  map[string]int
	ticks    int
}

func (r *sensRef) apply(kind sensOpKind, rs []reading) {
	if kind == opTick {
		r.ticks++
		for s := 0; s < len(r.lastTick); s += sensWatchEvery {
			if r.lastTick[s] {
				r.firings["Silent"]++
			}
			r.lastTick[s] = true
		}
		return
	}
	for _, x := range rs {
		if x.value > critAbove {
			r.firings["Crit"]++
		}
		if r.armed[x.sensor] && x.value < swingLow {
			r.firings["Swing"]++
		}
		if x.value > swingHigh {
			r.armed[x.sensor] = true
		}
		r.lastTick[x.sensor] = false
	}
}

func registerSensor(db *ode.Database) error {
	return db.NewClass("sensor").
		Field("v", ode.KindInt, ode.Int(0)).
		Update("report", func(ctx *ode.MethodCtx) (ode.Value, error) {
			return ode.Null(), ctx.Set("v", ctx.Arg("n"))
		}, ode.P("n", ode.KindInt)).
		Trigger(fmt.Sprintf("Crit(): perpetual after report(n) && n > %d ==> alert", critAbove), nop).
		Trigger(fmt.Sprintf("Swing(): perpetual relative(after report(n) && n > %d, after report(m) && m < %d) ==> alert",
			swingHigh, swingLow), nop).
		Trigger("Silent(): perpetual sequence(every time(M=10), every time(M=10)) ==> alert", nop).
		Register()
}

type sensDB struct {
	db    *ode.Database
	oids  []ode.OID
	regMs float64
}

func setupSensor(n int) (sensDB, error) {
	db, err := ode.Open(ode.Options{})
	if err != nil {
		return sensDB{}, err
	}
	t1 := time.Now()
	if err := registerSensor(db); err != nil {
		db.Close()
		return sensDB{}, err
	}
	regMs := float64(time.Since(t1)) / 1e6
	oids := make([]ode.OID, 0, n)
	for len(oids) < n {
		k := min(sensChunk, n-len(oids))
		err := db.Transact(func(tx *ode.Tx) error {
			for i := 0; i < k; i++ {
				oid, err := tx.NewObject("sensor", nil)
				if err != nil {
					return err
				}
				if err := tx.Activate(oid, "Crit"); err != nil {
					return err
				}
				if err := tx.Activate(oid, "Swing"); err != nil {
					return err
				}
				if watched(len(oids)) {
					if err := tx.Activate(oid, "Silent"); err != nil {
						return err
					}
				}
				oids = append(oids, oid)
			}
			return nil
		})
		if err != nil {
			db.Close()
			return sensDB{}, err
		}
	}
	return sensDB{db, oids, regMs}, nil
}

func runSensor(cfg config) (*report, error) {
	rep := &report{workload: "sensor-fleet"}
	n := sensN / cfg.scale
	in := genSensor(cfg.seed, n)
	// The planted fault drops the first reading of a watched sensor
	// after the first tick, which makes the sensor silent for a slot.
	skip := reading{sensor: -1}
	if cfg.skipReading {
		for _, x := range in.slots[1] {
			if watched(int(x.sensor)) {
				skip = x
				break
			}
		}
	}

	cacheBefore, err := compileCache()
	if err != nil {
		return nil, err
	}
	var regMs []float64
	sd, setup, err := medianSetup(sensSetupReps, func(int) (sensDB, error) {
		s, err := setupSensor(n)
		regMs = append(regMs, s.regMs)
		return s, err
	}, func(s sensDB) { s.db.Close() })
	if err != nil {
		return nil, fmt.Errorf("sensor-fleet setup: %w", err)
	}
	db := sd.db
	defer db.Close()
	setup.add(rep)
	statsSetup := db.Stats()
	addCompile(rep, regMs, cacheBefore, statsSetup)

	sub := egress.Subscribe(db.FeedSource(), 0)
	feedBy := map[string]int{}
	b := ode.NewBatch("sensor", sensBatch)
	rec := &recorder{}
	var (
		batchLat            latHist // µs, measured untraced batch transactions
		txLat               latHist // µs, measured untraced transactions
		tickUs              latHist // µs, measured ticks
		pollNs              time.Duration
		polled              int
		ops, tracedReadings int
		txDone              int               // measured transactions
		samples             = newOpSamples(3) // by sensOpKind
		stream              = sensStream{in: &in}
	)
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
			if cfg.untimed > 0 {
				time.Sleep(cfg.untimed)
			}
			kind, rs := stream.next()
			switch kind {
			case opTick:
				sp := r.begin(spAdvance, op)
				err := db.Advance(sensPeriod)
				r.end(sp)
				if err != nil {
					return fmt.Errorf("advance: %w", err)
				}
				if ph.measure {
					tickUs.add(us(time.Since(now)))
				}
				r.end(op)
				samples.done(ph, r, op, int(kind), now)
				continue
			case opBatch:
				b.Reset()
				for _, x := range rs {
					if x == skip {
						skip.sensor = -1
						continue
					}
					b.Call(sd.oids[x.sensor], "report", ode.Int(int64(x.value)))
				}
			}
			if traced && kind == opBatch {
				tracedReadings += b.Len()
			}
			sp := r.begin(spTx, op)
			err := db.Transact(func(tx *ode.Tx) error {
				r.setTx(sp, tx.ID())
				if kind == opSingle {
					cs := r.begin(spCall, sp)
					_, err := tx.Call(sd.oids[rs[0].sensor], "report", ode.Int(int64(rs[0].value)))
					r.end(cs)
					return err
				}
				cs := r.begin(spBatch, sp)
				err := tx.PostBatch(b)
				r.end(cs)
				return err
			})
			r.end(sp)
			took := us(time.Since(now))
			if err != nil {
				return fmt.Errorf("sensor-fleet transaction: %w", err)
			}
			if ph.measure {
				txDone++
				if !traced {
					txLat.add(took)
					if kind == opBatch {
						batchLat.add(took)
					}
				}
			}
			if kind == opBatch {
				p0 := time.Now()
				sp := r.begin(spPoll, op)
				recs := sub.Poll(0)
				r.end(sp)
				if ph.measure {
					pollNs += time.Since(p0)
					polled += len(recs)
				}
				for _, f := range recs {
					feedBy[f.Trigger]++
				}
			}
			r.end(op)
			samples.done(ph, r, op, int(kind), now)
		}
	}
	if err := drive(newWarmup(cfg)); err != nil {
		return nil, err
	}
	statsBefore := db.Stats()
	gcBefore := readGC()
	ph := newPhase(cfg)
	rec.t0 = ph.t0
	if err := drive(ph); err != nil {
		return nil, err
	}
	wall, cpu := ph.elapsed()
	addRates(rep, txDone, ode.StatsDelta(db.Stats(), statsBefore).Happenings, wall, cpu)
	for recs := sub.Poll(0); len(recs) > 0; recs = sub.Poll(0) {
		for _, f := range recs {
			feedBy[f.Trigger]++
		}
	}
	statsAfter := db.Stats()
	gcAfter, liveMB := endGC()
	delta := ode.StatsDelta(statsAfter, statsBefore)
	rep.attempted = txDone + tickUs.n

	rep.add("tx_p50_us", txLat.quantile(0.5), "us", txLat.n, "transactions")
	rep.add("tx_p99_us", txLat.quantile(0.99), "us", txLat.n, "transactions")
	rep.add("batch_p50_us", batchLat.quantile(0.5), "us", batchLat.n, "batches")
	rep.add("batch_p99_us", batchLat.quantile(0.99), "us", batchLat.n, "batches")
	rep.add("tick_p50_ms", tickUs.quantile(0.5)/1e3, "ms", tickUs.n, "ticks")
	rep.add("tick_p90_ms", tickUs.quantile(0.9)/1e3, "ms", tickUs.n, "ticks")
	rep.add("live_heap_mb", liveMB, "MB", 0, "")
	rep.add("fail_ratio", 0, "ratio", rep.attempted, "attempted")

	// Reference model over exactly the executed operations.
	ref := sensRef{armed: make([]bool, n), lastTick: make([]bool, n), firings: map[string]int{}}
	replay := sensStream{in: &in}
	for i := 0; i < ops; i++ {
		ref.apply(replay.next())
	}
	got := db.Metrics()
	byTrigger := map[string]uint64{}
	for _, t := range got.Triggers {
		byTrigger[t.Trigger] += t.Firings
	}
	for _, trig := range []string{"Crit", "Swing", "Silent"} {
		rep.check(feedBy[trig] == ref.firings[trig], "feed holds %d %s firings, reference %d", feedBy[trig], trig, ref.firings[trig])
		rep.check(byTrigger[trig] == uint64(ref.firings[trig]), "%s fired %d times, reference %d", trig, byTrigger[trig], ref.firings[trig])
	}
	nWatched := (n + sensWatchEvery - 1) / sensWatchEvery
	posts := statsAfter.TimerPosts - statsSetup.TimerPosts
	rep.check(posts == uint64(nWatched*ref.ticks), "%d timer posts, want watched sensors %d × ticks %d",
		posts, nWatched, ref.ticks)
	rep.check(len(db.Engine().TimerErrors()) == 0, "timer errors: %v", db.Engine().TimerErrors())
	rep.counts = runCounts(statsAfter, statsSetup, statsAfter.EgressSeq)

	addEngineCounts(rep, delta, gcBefore, gcAfter)
	rep.add("egress.poll_ns_per_record", ratio(float64(pollNs), float64(polled)), "ns", polled, "records")
	feed, _ := db.Firings(0, 0)
	addFeedRecords(rep, uint64(len(feed)), rep.counts)
	rep.add("clock.advance_ms", tickUs.mean()/1e3, "ms", tickUs.n, "ticks")
	rep.add("clock.timer_posts_per_tick", ratio(float64(delta.TimerPosts), float64(tickUs.n)), "posts", tickUs.n, "ticks")
	if cfg.trace {
		rep.spans = []spanSet{{"producer", rec.spans}}
		ls := split(rep.spans)
		rep.add("engine.batch_ns_per_happening", ratio(float64(ls.selfBy[spBatch]), float64(tracedReadings)),
			"ns", tracedReadings, "posted readings")
		addSplit(rep, ls, samples)
	}
	return rep, nil
}

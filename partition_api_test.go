package ode_test

import (
	"strings"
	"testing"
	"time"

	"ode"
)

// openPartitioned opens a Partitions=n database with the account class
// registered on every partition.
func openPartitioned(t *testing.T, n int, f *fires) *ode.Database {
	t.Helper()
	db, err := ode.Open(ode.Options{
		Partitions: n,
		Start:      time.Date(2026, 7, 4, 8, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	err = balanceMethods(db.NewClass("account")).
		Trigger("Large(): perpetual after withdraw(a) && a > 100 ==> report", f.action("Large")).
		Trigger("AnyDep(): perpetual after deposit ==> note", f.action("AnyDep")).
		Trigger("Tick(): perpetual every time(M=10) ==> tick", f.action("Tick")).
		Register()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPartitionedFacade drives the whole partitioned surface through
// the public API: TransactOn routing, trigger firing on every
// partition, aggregate stats, provenance, flight events with partition
// ids, and batch posting across partitions.
func TestPartitionedFacade(t *testing.T) {
	f := newFires()
	db := openPartitioned(t, 4, f)
	if got := db.Partitions(); got != 4 {
		t.Fatalf("Partitions() = %d", got)
	}

	// One activated account per partition, created on its own partition.
	oids := make([]ode.OID, 4)
	for p := range oids {
		err := db.TransactOn(p, func(tx *ode.Tx) error {
			oid, err := tx.NewObject("account", map[string]ode.Value{"balance": ode.Int(500)})
			if err != nil {
				return err
			}
			oids[p] = oid
			for _, name := range []string{"Large", "AnyDep"} {
				if err := tx.Activate(oid, name); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := db.PartitionOf(oids[p]); got != p {
			t.Fatalf("object created on partition %d routes to %d", p, got)
		}
	}

	// A batch spanning all partitions splits and posts per partition.
	b := ode.NewBatch("account", 8)
	for _, oid := range oids {
		b.Call(oid, "deposit", ode.Int(50))
		b.Call(oid, "withdraw", ode.Int(200))
	}
	if err := db.PostBatch(b); err != nil {
		t.Fatal(err)
	}
	db.Drain()
	if f.count("Large") != 4 || f.count("AnyDep") != 4 {
		t.Fatalf("Large fired %d, AnyDep fired %d; want 4 and 4", f.count("Large"), f.count("AnyDep"))
	}

	st := db.Stats()
	if st.Firings != 8 {
		t.Fatalf("aggregate Firings = %d, want 8", st.Firings)
	}

	// Provenance crosses the facade to the owning partition.
	for _, oid := range oids {
		ex, err := db.Explain("Large", oid)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Fired {
			t.Fatalf("Explain(Large, %d): not fired: %+v", oid, ex)
		}
	}

	// Flight events from all partitions, stamped with their owner.
	parts := map[int]bool{}
	for _, ev := range db.FlightEvents(0) {
		parts[ev.Part] = true
	}
	for p := 0; p < 4; p++ {
		if !parts[p] {
			t.Fatalf("no flight events from partition %d (saw %v)", p, parts)
		}
	}

	// TriggerState routes through the owner.
	for _, oid := range oids {
		if _, active, err := db.TriggerState(oid, "Large"); err != nil || !active {
			t.Fatalf("TriggerState(%d): %v %v", oid, active, err)
		}
	}
}

// TestPartitionedTimersThroughFacade: Advance moves every partition's
// clock and `every` triggers on objects in different partitions fire.
func TestPartitionedTimersThroughFacade(t *testing.T) {
	f := newFires()
	db := openPartitioned(t, 2, f)
	for p := 0; p < 2; p++ {
		err := db.TransactOn(p, func(tx *ode.Tx) error {
			oid, err := tx.NewObject("account", nil)
			if err != nil {
				return err
			}
			return tx.Activate(oid, "Tick")
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Advance(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := f.count("Tick"); got != 6 { // 3 ticks × 2 objects
		t.Fatalf("Tick fired %d times, want 6", got)
	}
}

// TestPartitionedRelayThroughFacade: RelayCall forwards a call to the
// owning partition; Drain is the quiescence barrier.
func TestPartitionedRelayThroughFacade(t *testing.T) {
	f := newFires()
	db := openPartitioned(t, 2, f)
	var oid ode.OID
	err := db.TransactOn(1, func(tx *ode.Tx) error {
		var err error
		oid, err = tx.NewObject("account", nil)
		if err != nil {
			return err
		}
		return tx.Activate(oid, "AnyDep")
	})
	if err != nil {
		t.Fatal(err)
	}
	db.RelayCall(0, oid, "deposit", ode.Int(25))
	db.Drain()
	if f.count("AnyDep") != 1 {
		t.Fatalf("relayed deposit did not fire AnyDep (count %d)", f.count("AnyDep"))
	}
	var bal int64
	err = db.TransactOn(1, func(tx *ode.Tx) error {
		v, err := tx.Call(oid, "getBalance")
		bal = v.AsInt()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if bal != 25 {
		t.Fatalf("balance = %d after relayed deposit, want 25", bal)
	}
}

// TestPartitionedGuards pins the facade's partitioned error contract:
// Begin panics (no single ambient partition to pin a transaction to)
// and TransactOn rejects nonzero partitions on unpartitioned
// databases.
func TestPartitionedGuards(t *testing.T) {
	f := newFires()
	db := openPartitioned(t, 2, f)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Begin did not panic in partitioned mode")
			}
			if !strings.Contains(r.(string), "TransactOn") {
				t.Fatalf("panic message does not point at TransactOn: %v", r)
			}
		}()
		db.Begin()
	}()

	plain := openDB(t)
	if err := plain.TransactOn(1, func(*ode.Tx) error { return nil }); err == nil {
		t.Fatal("TransactOn(1) succeeded on an unpartitioned database")
	}
	if err := plain.TransactOn(0, func(*ode.Tx) error { return nil }); err != nil {
		t.Fatalf("TransactOn(0) must work unpartitioned: %v", err)
	}
}

// TestHistoryOnEveryPartition runs History and QueryHistory at P=1 and
// P=4 on an object of every partition: each must answer from the
// object's owning partition, not from partition 0.
func TestHistoryOnEveryPartition(t *testing.T) {
	for _, n := range []int{1, 4} {
		db, err := ode.Open(ode.Options{Partitions: n, RecordHistories: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := balanceMethods(db.NewClass("account")).Register(); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			var oid ode.OID
			err := db.TransactOn(p, func(tx *ode.Tx) error {
				var err error
				if oid, err = tx.NewObject("account", nil); err != nil {
					return err
				}
				if _, err := tx.Call(oid, "deposit", ode.Int(5)); err != nil {
					return err
				}
				_, err = tx.Call(oid, "withdraw", ode.Int(2))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := db.PartitionOf(oid); got != p {
				t.Fatalf("P=%d: object created on partition %d routes to %d", n, p, got)
			}
			// create, before/after deposit, before/after withdraw,
			// before tcomplete, after tcommit.
			log := db.History(oid)
			if log == nil || log.Len() != 7 {
				t.Fatalf("P=%d partition %d: History(%d) = %v, want 7 entries", n, p, oid, log)
			}
			seqs, err := db.QueryHistory(oid, "after deposit")
			if err != nil || len(seqs) != 1 {
				t.Fatalf("P=%d partition %d: QueryHistory(%d) = %v, %v; want one point", n, p, oid, seqs, err)
			}
		}
	}
}

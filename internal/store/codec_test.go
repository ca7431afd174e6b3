package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ode/internal/value"
)

// encodeFrames returns the sealed frames of fs, back to back.
func encodeFrames(fs ...frame) []byte {
	var e encoder
	for i := range fs {
		e.frame(&fs[i])
	}
	return e.buf
}

// rawFrame seals an arbitrary payload, so tests can log frames the
// encoder never writes.
func rawFrame(payload []byte) []byte {
	b := append(OpenFrame(nil), payload...)
	return CloseFrame(b, 0)
}

// recordBytes returns the canonical encoding of one record.
func recordBytes(t testing.TB, r *Record) []byte {
	t.Helper()
	var e encoder
	e.record(r)
	return e.buf
}

// specialValues covers every value.Kind and the payloads a codec most
// easily gets wrong.
func specialValues() []value.Value {
	return []value.Value{
		value.Null(),
		value.Int(0), value.Int(-1), value.Int(math.MaxInt64), value.Int(math.MinInt64),
		value.Float(math.NaN()), value.Float(math.Copysign(0, -1)), value.Float(math.Inf(-1)), value.Float(2.5),
		value.Bool(false), value.Bool(true),
		value.Str(""), value.Str("日本\x00"),
		value.Time(time.Time{}),
		value.Time(time.Date(2000, 1, 1, 0, 0, 0, 7, time.UTC)),
		value.Time(time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.FixedZone("IST", 5*3600+1800))),
		value.Time(time.Date(2024, 6, 1, 12, 0, 0, 0, time.FixedZone("", 0))),
		value.ID(0), value.ID(42),
	}
}

func randValue(rng *rand.Rand) value.Value {
	specials := specialValues()
	if rng.Intn(2) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	switch value.Kind(rng.Intn(int(value.KindID) + 1)) {
	case value.KindInt:
		return value.Int(rng.Int63() - rng.Int63())
	case value.KindFloat:
		return value.Float(rng.NormFloat64() * 1e6)
	case value.KindBool:
		return value.Bool(rng.Intn(2) == 0)
	case value.KindString:
		return value.Str(randString(rng))
	case value.KindTime:
		t := time.Unix(rng.Int63n(1<<40)-1<<39, rng.Int63n(1e9))
		if rng.Intn(2) == 0 {
			return value.Time(t.UTC())
		}
		return value.Time(t.In(time.FixedZone("Z", (rng.Intn(2*14*60)-14*60)*60)))
	case value.KindID:
		return value.ID(rng.Uint64())
	}
	return value.Null()
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteByte("abcxyz_é"[rng.Intn(8)])
	}
	return b.String()
}

// randKeys returns up to n distinct keys.
func randKeys(rng *rand.Rand, n int) []string {
	seen := map[string]bool{}
	var keys []string
	for i := 0; i < n; i++ {
		if k := randString(rng); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// recordSpec is a record's content with its map entries as ordered
// lists, so the same record can be built with different insertion
// orders.
type recordSpec struct {
	oid    OID
	class  string
	fields []string
	fvals  []value.Value
	trigs  []string
	acts   []actSpec
}

type actSpec struct {
	active  bool
	state   int
	params  []string
	pvals   []value.Value
	dense   []value.Value
	shadow  []int
	nilPrms bool // Params nil rather than empty
}

func randSpec(rng *rand.Rand) recordSpec {
	sp := recordSpec{oid: OID(rng.Uint64() >> rng.Intn(64)), class: randString(rng)}
	sp.fields = randKeys(rng, rng.Intn(6))
	for range sp.fields {
		sp.fvals = append(sp.fvals, randValue(rng))
	}
	sp.trigs = randKeys(rng, rng.Intn(4))
	for range sp.trigs {
		a := actSpec{active: rng.Intn(2) == 0, state: rng.Intn(64) - 8, nilPrms: rng.Intn(3) == 0}
		if !a.nilPrms {
			a.params = randKeys(rng, rng.Intn(4))
			for range a.params {
				a.pvals = append(a.pvals, randValue(rng))
			}
		}
		switch rng.Intn(3) {
		case 1:
			a.dense = []value.Value{}
		case 2:
			a.dense = append([]value.Value{}, a.pvals...)
			a.dense = append(a.dense, randValue(rng))
		}
		switch rng.Intn(3) {
		case 1:
			a.shadow = []int{}
		case 2:
			for n := 1 + rng.Intn(5); n > 0; n-- {
				a.shadow = append(a.shadow, rng.Intn(100)-1)
			}
		}
		sp.acts = append(sp.acts, a)
	}
	return sp
}

// build makes the record, inserting map entries in the spec's order or,
// with reverse, the opposite order.
func (sp recordSpec) build(reverse bool) *Record {
	order := func(n int) []int {
		ix := make([]int, n)
		for i := range ix {
			ix[i] = i
			if reverse {
				ix[i] = n - 1 - i
			}
		}
		return ix
	}
	r := &Record{OID: sp.oid, Class: sp.class, Fields: map[string]value.Value{}, Triggers: map[string]*TrigActivation{}}
	for _, i := range order(len(sp.fields)) {
		r.Fields[sp.fields[i]] = sp.fvals[i]
	}
	for _, i := range order(len(sp.trigs)) {
		a := sp.acts[i]
		act := &TrigActivation{Active: a.active, State: a.state, Dense: a.dense, Shadow: a.shadow}
		if !a.nilPrms {
			act.Params = map[string]value.Value{}
			for _, j := range order(len(a.params)) {
				act.Params[a.params[j]] = a.pvals[j]
			}
		}
		r.Triggers[sp.trigs[i]] = act
	}
	return r
}

// sameValue is value identity as the codec keeps it: float bits, and
// for times the instant, the UTC offset and whether the zone is UTC.
func sameValue(a, b value.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case value.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case value.KindTime:
		_, ao := a.T.Zone()
		_, bo := b.T.Zone()
		return a.T.Equal(b.T) && ao == bo && (a.T.Location() == time.UTC) == (b.T.Location() == time.UTC)
	}
	return a == b
}

func sameValues(a, b []value.Value) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, sameValue)
}

func sameValueMap(a, b map[string]value.Value) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !sameValue(v, w) {
			return false
		}
	}
	return true
}

func sameRecord(a, b *Record) error {
	if a.OID != b.OID || a.Class != b.Class {
		return fmt.Errorf("identity %d/%q != %d/%q", a.OID, a.Class, b.OID, b.Class)
	}
	if !sameValueMap(a.Fields, b.Fields) {
		return fmt.Errorf("fields %v != %v", a.Fields, b.Fields)
	}
	if len(a.Triggers) != len(b.Triggers) {
		return fmt.Errorf("%d triggers != %d", len(a.Triggers), len(b.Triggers))
	}
	for k, x := range a.Triggers {
		y, ok := b.Triggers[k]
		if !ok {
			return fmt.Errorf("trigger %q lost", k)
		}
		if x.Active != y.Active || x.State != y.State || !sameValueMap(x.Params, y.Params) ||
			!sameValues(x.Dense, y.Dense) || (x.Shadow == nil) != (y.Shadow == nil) || !slices.Equal(x.Shadow, y.Shadow) {
			return fmt.Errorf("trigger %q: %+v != %+v", k, x, y)
		}
	}
	return nil
}

// TestCodecRoundTripCanonical: random records — every value kind, nil
// and empty activation parts — decode back to equal records, and the
// same record built with different map insertion orders encodes to
// identical bytes, which re-encode unchanged after a decode.
func TestCodecRoundTripCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		sp := randSpec(rng)
		r := sp.build(false)
		b := encodeFrames(frame{Op: opPut, TxID: uint64(i), Recs: []*Record{r}})
		if other := encodeFrames(frame{Op: opPut, TxID: uint64(i), Recs: []*Record{sp.build(true)}}); !bytes.Equal(b, other) {
			t.Fatalf("record %d: insertion order changed the bytes:\n%x\n%x", i, b, other)
		}
		payload, n, err := ReadFrame(b, math.MaxUint32)
		if err != nil || n != len(b) {
			t.Fatalf("record %d: ReadFrame = %d, %v", i, n, err)
		}
		f, err := decodeFrame(payload)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if err := sameRecord(r, f.Recs[0]); err != nil {
			t.Fatalf("record %d: round trip: %v", i, err)
		}
		if again := encodeFrames(f); !bytes.Equal(again, b) {
			t.Fatalf("record %d: decoded record re-encodes differently", i)
		}
	}
	// Every special value, each in a field, a parameter and a dense slot.
	r := &Record{OID: 9, Fields: map[string]value.Value{}, Triggers: map[string]*TrigActivation{}}
	for i, v := range specialValues() {
		k := fmt.Sprint("k", i)
		r.Fields[k] = v
		r.Trigger("t").Params = map[string]value.Value{k: v}
		r.Trigger(k).Dense = []value.Value{v}
	}
	payload, _, err := ReadFrame(encodeFrames(frame{Op: opPut, Recs: []*Record{r}}), math.MaxUint32)
	if err != nil {
		t.Fatal(err)
	}
	f, err := decodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRecord(r, f.Recs[0]); err != nil {
		t.Fatalf("special values: %v", err)
	}
	for k, v := range f.Recs[0].Fields {
		if v.Kind == value.KindTime && v.T.IsZero() && v.T != (time.Time{}) {
			t.Fatalf("field %s: zero time decoded as %#v", k, v.T)
		}
	}
}

// walState is a canonical digest of a store's heap and firing feed.
func walState(t testing.TB, s *Store) string {
	t.Helper()
	oids := s.OIDs()
	slices.Sort(oids)
	var e encoder
	for _, oid := range oids {
		r, _ := s.Get(oid)
		e.record(r)
	}
	recs, _ := s.FiringsFrom(0, 0)
	e.frame(&frame{Op: opFirings, Firings: recs})
	return string(e.buf)
}

// commitMix commits 20 transactions mixing single puts, put-n, deletes
// and firings, returning the state digest after each prefix of them
// (index 0: nothing committed).
func commitMix(t testing.TB, s *Store) []string {
	t.Helper()
	states := []string{walState(t, s)}
	var live []OID
	for tx := uint64(1); tx <= 20; tx++ {
		var dirty, deleted []OID
		var firings []FiringRecord
		switch tx % 4 {
		case 0: // put-n: two new objects and an update
			for i := 0; i < 2; i++ {
				r := s.Create("acct", map[string]value.Value{"bal": value.Int(int64(tx)), "who": value.Str(fmt.Sprint("c", tx))})
				act := r.Trigger("Big")
				act.Active, act.Params, act.Dense = true, map[string]value.Value{"lim": value.Float(0.5)}, []value.Value{value.Float(0.5)}
				dirty = append(dirty, r.OID)
				live = append(live, r.OID)
			}
			if len(live) > 2 {
				dirty = append(dirty, live[0])
			}
		case 1: // single put
			r := s.Create("acct", map[string]value.Value{"bal": value.Int(-int64(tx))})
			dirty = append(dirty, r.OID)
			live = append(live, r.OID)
		case 2: // update with firings
			r, _ := s.Get(live[len(live)-1])
			r.Fields["bal"] = value.Int(int64(tx) * 100)
			r.Trigger("Big").State = int(tx)
			r.Trigger("Big").Shadow = append(r.Trigger("Big").Shadow, int(tx))
			dirty = append(dirty, r.OID)
			firings = []FiringRecord{
				{OID: r.OID, Class: "acct", Trigger: "Big", Kind: "after withdraw", AtNs: int64(tx)},
				{OID: r.OID, Class: "acct", Trigger: "Rebound", Kind: "after deposit", AtNs: -int64(tx)},
			}
		case 3: // delete
			oid := live[len(live)-1]
			live = live[:len(live)-1]
			if err := s.Delete(oid); err != nil {
				t.Fatal(err)
			}
			deleted = append(deleted, oid)
		}
		if err := s.LogCommit(tx, dirty, deleted, firings); err != nil {
			t.Fatal(err)
		}
		states = append(states, walState(t, s))
	}
	return states
}

// TestWALBitFlipNeverDiverges flips one bit at every byte offset of a
// WAL holding 20 mixed transactions and reopens each time. Open must
// never panic, and whenever it succeeds the recovered heap and feed
// must equal the state after some prefix of the committed transactions
// — a flip may cost the tail (read as a torn tail) or refuse the open,
// but never recover into a state no prefix produced.
func TestWALBitFlipNeverDiverges(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	states := commitMix(t, s)
	s.Close()
	prefix := map[string]int{}
	for i, st := range states {
		prefix[st] = i
	}
	wal, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	reopen := func(data []byte) (state string, rec RecoveryInfo, err error) {
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Open panicked: %v", p)
			}
		}()
		s, err := Open(dir)
		if err != nil {
			return "", rec, err
		}
		defer s.Close()
		return walState(t, s), s.Recovery(), nil
	}
	if st, _, err := reopen(wal); err != nil || prefix[st] != len(states)-1 {
		t.Fatalf("unflipped log: prefix %d of %d, err %v", prefix[st], len(states)-1, err)
	}
	refused, truncated := 0, 0
	flipped := make([]byte, len(wal))
	for off := range wal {
		copy(flipped, wal)
		flipped[off] ^= 1 << (off % 8)
		st, rec, err := reopen(flipped)
		if err != nil {
			refused++
			continue
		}
		k, ok := prefix[st]
		if !ok {
			t.Fatalf("flip at byte %d: recovered a state no prefix of the committed transactions produced", off)
		}
		if k < len(states)-1 {
			if !rec.TornTail {
				t.Fatalf("flip at byte %d: lost transactions %d.. without reporting a torn tail", off, k+1)
			}
			truncated++
		}
	}
	t.Logf("%d-byte wal: %d flips refused, %d read as a torn tail, %d recovered everything",
		len(wal), refused, truncated, len(wal)-refused-truncated)
}

// TestWALHeader: a non-empty log without the header fails Open with
// ErrFormat and is left as it is; a torn header is an empty log.
func TestWALHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	foreign := []byte("not a wal at all")
	os.WriteFile(path, foreign, 0o644)
	if _, err := Open(dir); !errors.Is(err, ErrFormat) {
		t.Fatalf("foreign wal: err = %v, want ErrFormat", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, foreign) {
		t.Fatal("Open modified a foreign wal")
	}
	os.WriteFile(path, []byte(walHeader[:3]), 0o644)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s.Recovery(); !rec.TornTail || rec.TornTailBytes != 3 {
		t.Fatalf("torn header: recovery %+v", rec)
	}
	a := s.Create("x", nil)
	if err := s.LogCommit(1, []OID{a.OID}, nil, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got, _ := os.ReadFile(path); !bytes.HasPrefix(got, []byte(walHeader)) {
		t.Fatalf("log after the repair starts %q", got[:min(len(got), 8)])
	}
	s, err = Open(dir)
	if err != nil || !s.Exists(a.OID) {
		t.Fatalf("reopen after the header repair: %v", err)
	}
	s.Close()

	// A checkpoint of the earlier format is refused, not ignored.
	os.WriteFile(filepath.Join(dir, legacySnapshotName), []byte{1}, 0o644)
	if _, err := Open(dir); !errors.Is(err, ErrFormat) {
		t.Fatalf("legacy snapshot: err = %v, want ErrFormat", err)
	}
}

// FuzzWALFrames: over arbitrary bytes the frame reader never panics,
// and the header plus every frame it returns re-encode to exactly the
// clean prefix they were read from.
func FuzzWALFrames(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	commitMix(f, s)
	s.Close()
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	f.Add(wal[:len(wal)/2])
	f.Add([]byte(walHeader))
	f.Add(append([]byte(walHeader), rawFrame([]byte{opPutN, 1, 1})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, sc, err := scanWAL(data)
		if err != nil && !errors.Is(err, ErrTornTail) {
			if frames != nil {
				t.Fatalf("frames returned alongside %v", err)
			}
			return
		}
		var re []byte
		if sc.cleanLen > 0 {
			re = append([]byte(walHeader), encodeFrames(frames...)...)
		} else if len(frames) > 0 {
			t.Fatalf("%d frame(s) without a header", len(frames))
		}
		if !bytes.Equal(re, data[:sc.cleanLen]) {
			t.Fatalf("frames re-encode to %x, read from %x", re, data[:sc.cleanLen])
		}
	})
}

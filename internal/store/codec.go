package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
	"time"

	"ode/internal/value"
)

// The WAL and the checkpoint share one canonical binary frame codec,
// which the egress record codec (internal/egress) builds on too. A
// frame is a u32 little-endian payload length, the payload, then the
// u32 little-endian CRC-32 (IEEE) of the payload. Integers inside a
// payload are minimal uvarints (zigzag varints for signed values),
// strings are a uvarint length then the bytes, and map entries are
// written in ascending key order, so equal records encode to equal
// bytes and a decoder accepts exactly the bytes the encoder writes.

// Frame operations: the first payload byte.
const (
	opBegin byte = iota + 1
	opPut
	opDelete
	opCommit
	// opPutN carries every dirty record of one transaction in a single
	// frame. A transaction that touched N objects appends one record
	// frame instead of N, and a torn tail can only lose the whole record
	// set, never a prefix of it.
	opPutN
	// opFirings carries the trigger-firing records captured by one
	// transaction, appended between the transaction's record frames and
	// its opCommit. Riding the same commit batch makes the firings
	// exactly as durable as the transaction itself: a crash either
	// preserves both or neither. A checkpoint ends with one opFirings
	// frame holding the whole feed.
	opFirings
	// opCheckpoint opens a checkpoint: the next OID to allocate, the
	// feed's highest issued sequence number and the record count.
	opCheckpoint
)

// frame is one decoded frame. The payload is the op byte, the
// transaction id as a uvarint, then the op's body.
type frame struct {
	Op   byte
	TxID uint64
	// OID is the deleted object (opDelete) or the next OID to allocate
	// (opCheckpoint).
	OID OID
	// Recs holds exactly one record for opPut and two or more for opPutN.
	Recs    []*Record
	Firings []FiringRecord // opFirings
	// Seq and Count are the highest issued firing sequence number and
	// the number of records that follow (opCheckpoint).
	Seq, Count uint64
}

// Each file starts with a magic+version header; a reader refuses a
// non-empty file without it (ErrFormat).
const (
	walHeader      = "ODEWAL\x00\x01"
	snapshotHeader = "ODECKP\x00\x01"
)

// ErrFormat reports a WAL or checkpoint file that does not start with
// this version's header: another program's file, or one written by an
// incompatible version. Open refuses it and leaves the file as it is.
var ErrFormat = errors.New("store: unrecognised file format")

// ErrTornTail reports that the input ends mid-frame — in the WAL, the
// expected residue of a crash mid-append. readWAL still returns every
// intact frame before the tear; callers decide whether to repair
// (truncate to the clean prefix) or refuse.
var ErrTornTail = errors.New("store: torn wal tail")

// ErrCorruptFrame reports a complete frame that failed its checksum or
// whose payload is not one the encoder writes. Recovery refuses to open
// the store rather than guess.
var ErrCorruptFrame = errors.New("store: corrupt wal frame")

// OpenFrame appends the length placeholder of a new frame to buf. The
// payload is appended after it and CloseFrame seals the frame.
func OpenFrame(buf []byte) []byte { return append(buf, 0, 0, 0, 0) }

// CloseFrame seals the frame opened at buf[start:]: it patches the
// payload length and appends the payload's CRC-32.
func CloseFrame(buf []byte, start int) []byte {
	payload := buf[start+4:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// ReadFrame checks the first frame in b and returns its payload and the
// frame's length. Input that ends mid-frame returns an error wrapping
// ErrTornTail; an empty or over-long (beyond limit) payload, or a
// checksum mismatch, returns an error wrapping ErrCorruptFrame.
func ReadFrame(b []byte, limit uint32) (payload []byte, n int, err error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("%w: %d-byte length-prefix fragment", ErrTornTail, len(b))
	}
	size := binary.LittleEndian.Uint32(b)
	if size == 0 || size > limit {
		return nil, 0, fmt.Errorf("%w: implausible payload length %d", ErrCorruptFrame, size)
	}
	n = 4 + int(size) + 4
	if len(b) < n {
		return nil, 0, fmt.Errorf("%w: frame promises %d bytes, %d present", ErrTornTail, n, len(b))
	}
	payload = b[4 : 4+size]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[4+size:]); got != want {
		return nil, 0, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrCorruptFrame, got, want)
	}
	return payload, n, nil
}

// AppendFiring appends the canonical encoding of one firing record.
func AppendFiring(buf []byte, r FiringRecord) []byte {
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendUvarint(buf, r.TxID)
	buf = binary.AppendUvarint(buf, uint64(r.OID))
	buf = binary.AppendUvarint(buf, uint64(r.Part))
	buf = binary.AppendVarint(buf, r.AtNs)
	buf = appendString(buf, r.Class)
	buf = appendString(buf, r.Trigger)
	return appendString(buf, r.Kind)
}

// DecodeFiring decodes one firing record from the front of p and
// returns the rest of p. Malformed input returns an error wrapping
// ErrCorruptFrame.
func DecodeFiring(p []byte) (FiringRecord, []byte, error) {
	d := decoder{p: p}
	r := d.firing()
	return r, d.p, d.err
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encoder appends frames to a reusable buffer. keys is scratch for
// sorting map keys; recs is scratch for the records of one commit.
type encoder struct {
	buf  []byte
	keys []string
	recs []*Record
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// release returns e to the pool, dropping its references to records.
func (e *encoder) release() {
	clear(e.keys[:cap(e.keys)])
	clear(e.recs[:cap(e.recs)])
	e.buf, e.keys, e.recs = e.buf[:0], e.keys[:0], e.recs[:0]
	if cap(e.buf) > 1<<20 {
		e.buf = nil // a set-up sized commit; do not pin it in the pool
	}
	encoders.Put(e)
}

// puts appends one record frame for recs: opPut for one record, opPutN
// for more.
func (e *encoder) puts(txID uint64, recs []*Record) {
	op := opPutN
	if len(recs) == 1 {
		op = opPut
	}
	e.frame(&frame{Op: op, TxID: txID, Recs: recs})
}

// frame appends f as one sealed frame.
func (e *encoder) frame(f *frame) {
	start := len(e.buf)
	e.buf = OpenFrame(e.buf)
	e.buf = append(e.buf, f.Op)
	e.uvarint(f.TxID)
	switch f.Op {
	case opPut, opPutN:
		e.uvarint(uint64(len(f.Recs)))
		for _, r := range f.Recs {
			e.record(r)
		}
	case opDelete:
		e.uvarint(uint64(f.OID))
	case opFirings:
		e.uvarint(uint64(len(f.Firings)))
		for i := range f.Firings {
			e.buf = AppendFiring(e.buf, f.Firings[i])
		}
	case opCheckpoint:
		e.uvarint(uint64(f.OID))
		e.uvarint(f.Seq)
		e.uvarint(f.Count)
	}
	e.buf = CloseFrame(e.buf, start)
}

func (e *encoder) uvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }
func (e *encoder) varint(i int64)   { e.buf = binary.AppendVarint(e.buf, i) }
func (e *encoder) str(s string)     { e.buf = appendString(e.buf, s) }

// sortedKeys pushes m's keys, sorted, onto the key scratch and returns
// the mark to pop back to.
func sortedKeys[V any](e *encoder, m map[string]V) (mark int) {
	mark = len(e.keys)
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys[mark:])
	return mark
}

// Activation flags: Active, then which of Params, Dense and Shadow are
// non-nil, so nil and empty survive the round trip.
const (
	actActive = 1 << iota
	actParams
	actDense
	actShadow
	actFlags = actActive | actParams | actDense | actShadow
)

// record appends r: OID, class, fields by name, then trigger
// activations by name.
func (e *encoder) record(r *Record) {
	e.uvarint(uint64(r.OID))
	e.str(r.Class)
	e.values(r.Fields)
	mark := sortedKeys(e, r.Triggers)
	e.uvarint(uint64(len(r.Triggers)))
	for _, k := range e.keys[mark:] {
		a := r.Triggers[k]
		e.str(k)
		var flags byte
		if a.Active {
			flags |= actActive
		}
		if a.Params != nil {
			flags |= actParams
		}
		if a.Dense != nil {
			flags |= actDense
		}
		if a.Shadow != nil {
			flags |= actShadow
		}
		e.buf = append(e.buf, flags)
		e.varint(int64(a.State))
		if a.Params != nil {
			e.values(a.Params)
		}
		if a.Dense != nil {
			e.uvarint(uint64(len(a.Dense)))
			for _, v := range a.Dense {
				e.value(v)
			}
		}
		if a.Shadow != nil {
			e.uvarint(uint64(len(a.Shadow)))
			for _, s := range a.Shadow {
				e.varint(int64(s))
			}
		}
	}
	e.keys = e.keys[:mark]
}

func (e *encoder) values(m map[string]value.Value) {
	mark := sortedKeys(e, m)
	e.uvarint(uint64(len(m)))
	for _, k := range e.keys[mark:] {
		e.str(k)
		e.value(m[k])
	}
	e.keys = e.keys[:mark]
}

// Time zones: a time is kept as its instant plus either UTC or its
// offset from UTC (zone names are not kept).
const (
	zoneUTC = iota
	zoneOffset
)

// value appends v's kind byte and the payload that kind uses.
func (e *encoder) value(v value.Value) {
	e.buf = append(e.buf, byte(v.Kind))
	switch v.Kind {
	case value.KindInt, value.KindID:
		e.varint(v.I)
	case value.KindFloat:
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v.F))
	case value.KindBool:
		b := byte(0)
		if v.B {
			b = 1
		}
		e.buf = append(e.buf, b)
	case value.KindString:
		e.str(v.S)
	case value.KindTime:
		if v.T.Location() == time.UTC {
			e.buf = append(e.buf, zoneUTC)
		} else {
			_, off := v.T.Zone()
			e.buf = append(e.buf, zoneOffset)
			e.varint(int64(off))
		}
		e.varint(v.T.Unix())
		e.uvarint(uint64(v.T.Nanosecond()))
	}
}

// decodeFrame decodes one frame payload (as returned by ReadFrame).
// Any payload the encoder would not have written — an unknown op, a
// record count that disagrees with the op, a non-minimal varint,
// unsorted keys, trailing bytes — returns an error wrapping
// ErrCorruptFrame.
func decodeFrame(payload []byte) (frame, error) {
	d := decoder{p: payload}
	f := frame{Op: d.byte(), TxID: d.uvarint()}
	switch f.Op {
	case opBegin, opCommit:
	case opPut, opPutN:
		n := d.count()
		if (f.Op == opPut) != (n == 1) || n == 0 {
			d.fail("op %d carries %d record(s)", f.Op, n)
		}
		f.Recs = make([]*Record, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			f.Recs = append(f.Recs, d.record())
		}
	case opDelete:
		f.OID = OID(d.uvarint())
	case opFirings:
		n := d.count()
		f.Firings = make([]FiringRecord, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			f.Firings = append(f.Firings, d.firing())
		}
	case opCheckpoint:
		f.OID, f.Seq, f.Count = OID(d.uvarint()), d.uvarint(), d.uvarint()
	default:
		d.fail("unknown op %d", f.Op)
	}
	if d.err == nil && len(d.p) != 0 {
		d.fail("%d trailing payload byte(s)", len(d.p))
	}
	if d.err != nil {
		return frame{}, d.err
	}
	return f, nil
}

// decoder reads a payload front to back. The first failure sticks:
// later reads return zero values, so callers check err once at the end.
type decoder struct {
	p   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptFrame}, args...)...)
	}
	d.p = nil
}

func (d *decoder) byte() byte {
	if len(d.p) == 0 {
		d.fail("payload ends early")
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

// uvarint reads a minimally encoded uvarint.
func (d *decoder) uvarint() uint64 {
	u, n := binary.Uvarint(d.p)
	if n <= 0 || (n > 1 && d.p[n-1] == 0) {
		d.fail("bad uvarint")
		return 0
	}
	d.p = d.p[n:]
	return u
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads an element count, bounded by the bytes left (every
// element takes at least one) so a bad count cannot drive a huge
// allocation.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.p)) {
		d.fail("count %d exceeds the %d byte(s) left", n, len(d.p))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count()
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

func (d *decoder) firing() FiringRecord {
	r := FiringRecord{Seq: d.uvarint(), TxID: d.uvarint(), OID: OID(d.uvarint())}
	if part := d.uvarint(); part <= math.MaxInt32 {
		r.Part = int(part)
	} else {
		d.fail("implausible partition %d", part)
	}
	r.AtNs = d.varint()
	r.Class, r.Trigger, r.Kind = d.str(), d.str(), d.str()
	return r
}

// key reads a map key, which must sort strictly after prev.
func (d *decoder) key(i int, prev string) string {
	k := d.str()
	if i > 0 && k <= prev {
		d.fail("key %q out of order after %q", k, prev)
	}
	return k
}

func (d *decoder) record() *Record {
	r := &Record{OID: OID(d.uvarint()), Class: d.str()}
	r.Fields = d.values()
	n := d.count()
	r.Triggers = make(map[string]*TrigActivation, n)
	name := ""
	for i := 0; i < n && d.err == nil; i++ {
		name = d.key(i, name)
		flags := d.byte()
		if flags&^actFlags != 0 {
			d.fail("unknown activation flags %#x", flags)
		}
		a := &TrigActivation{Active: flags&actActive != 0, State: int(d.varint())}
		if flags&actParams != 0 {
			a.Params = d.values()
		}
		if flags&actDense != 0 {
			a.Dense = make([]value.Value, d.count())
			for j := range a.Dense {
				a.Dense[j] = d.value()
			}
		}
		if flags&actShadow != 0 {
			a.Shadow = make([]int, d.count())
			for j := range a.Shadow {
				a.Shadow[j] = int(d.varint())
			}
		}
		r.Triggers[name] = a
	}
	return r
}

func (d *decoder) values() map[string]value.Value {
	n := d.count()
	m := make(map[string]value.Value, n)
	k := ""
	for i := 0; i < n && d.err == nil; i++ {
		k = d.key(i, k)
		m[k] = d.value()
	}
	return m
}

func (d *decoder) value() value.Value {
	switch k := value.Kind(d.byte()); k {
	case value.KindNull:
		return value.Null()
	case value.KindInt:
		return value.Int(d.varint())
	case value.KindID:
		return value.Value{Kind: value.KindID, I: d.varint()}
	case value.KindFloat:
		if len(d.p) < 8 {
			d.fail("float payload ends early")
			return value.Value{}
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.p))
		d.p = d.p[8:]
		return value.Float(f)
	case value.KindBool:
		b := d.byte()
		if b > 1 {
			d.fail("bool byte %d", b)
		}
		return value.Bool(b == 1)
	case value.KindString:
		return value.Str(d.str())
	case value.KindTime:
		zone := d.byte()
		loc := time.UTC
		switch zone {
		case zoneUTC:
		case zoneOffset:
			loc = time.FixedZone("", int(d.varint()))
		default:
			d.fail("unknown time zone tag %d", zone)
		}
		sec, nsec := d.varint(), d.uvarint()
		if nsec >= 1e9 {
			d.fail("nanoseconds %d out of range", nsec)
		}
		return value.Time(time.Unix(sec, int64(nsec)).In(loc))
	default:
		d.fail("unknown value kind %d", k)
		return value.Value{}
	}
}

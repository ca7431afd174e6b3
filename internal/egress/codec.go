// Package egress is the consumer side of the durable firing feed: a
// binary record codec, persistent resumable cursors, subscriptions
// that stream historical then live firings, and a webhook/callback
// deliverer whose at-least-once retries are made effectively-once by
// domain-separated idempotency keys.
//
// The feed itself is produced by the store (internal/store): firing
// records captured inside a posting transaction ride the transaction's
// own WAL batch, so a committed transaction and its firings are atomic
// and recover together. This package consumes that feed through the
// narrow Source interface, which both a single Engine and a
// partitioned DB implement.
package egress

import (
	"errors"
	"fmt"

	"ode/internal/store"
)

// Codec errors. ErrTruncated means the input ends mid-frame — the
// residue of a torn write, recoverable by discarding the tail.
// ErrCorrupt means a complete frame failed validation (bad checksum,
// unknown version, malformed body) — data loss, not a clean tear.
var (
	ErrTruncated = errors.New("egress: truncated record")
	ErrCorrupt   = errors.New("egress: corrupt record")
)

// codecVersion is the first payload byte of every encoded record.
const codecVersion = 1

// maxPayload bounds a single record (class/trigger/kind names are
// short identifiers; 1 MiB is generous) so a corrupt length prefix
// cannot drive a huge allocation.
const maxPayload = 1 << 20

// AppendRecord appends the framed encoding of rec to buf and returns
// the extended slice. The frame is the store's (see store.ReadFrame):
// a 4-byte little-endian payload length, the payload — codecVersion,
// then store.AppendFiring's encoding — and the payload's CRC-32 (IEEE).
func AppendRecord(buf []byte, rec store.FiringRecord) []byte {
	start := len(buf)
	buf = append(store.OpenFrame(buf), codecVersion)
	buf = store.AppendFiring(buf, rec)
	return store.CloseFrame(buf, start)
}

// DecodeRecord decodes the first framed record in b, returning the
// record and the number of bytes consumed. An incomplete frame returns
// ErrTruncated; a complete but invalid one returns ErrCorrupt.
func DecodeRecord(b []byte) (store.FiringRecord, int, error) {
	payload, n, err := store.ReadFrame(b, maxPayload)
	if errors.Is(err, store.ErrTornTail) {
		return store.FiringRecord{}, 0, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if err != nil {
		return store.FiringRecord{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if payload[0] != codecVersion {
		return store.FiringRecord{}, 0, fmt.Errorf("%w: unknown version %d", ErrCorrupt, payload[0])
	}
	rec, rest, err := store.DecodeFiring(payload[1:])
	if err != nil {
		return store.FiringRecord{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(rest) != 0 {
		return store.FiringRecord{}, 0, fmt.Errorf("%w: %d trailing payload byte(s)", ErrCorrupt, len(rest))
	}
	return rec, n, nil
}

// DecodeAll decodes every complete record in b. A truncated final
// frame returns the intact prefix alongside ErrTruncated (with the
// clean byte length recoverable by re-encoding); any corrupt frame
// fails outright.
func DecodeAll(b []byte) ([]store.FiringRecord, error) {
	var out []store.FiringRecord
	for len(b) > 0 {
		rec, n, err := DecodeRecord(b)
		if err != nil {
			return out, err
		}
		out = append(out, rec)
		b = b[n:]
	}
	return out, nil
}

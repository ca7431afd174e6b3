package store

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"ode/internal/fault"
)

const (
	walName      = "wal.log"
	snapshotName = "snapshot.ckpt"
	// legacySnapshotName is the checkpoint file of the earlier gob
	// format. Open refuses a directory holding one (ErrFormat) rather
	// than open it as empty.
	legacySnapshotName = "snapshot.gob"
)

// walFile appends commit batches to the log with group commit: the
// first committer to arrive becomes the leader, drains the queue of
// every commit buffer submitted while the previous batch was syncing,
// and flushes them with one Write and one Sync. Followers block on a
// per-commit done channel and are acked only after the shared Sync
// returns, so an acknowledged commit is always durable. The batching
// window is the duration of the in-flight write+Sync — under load,
// batches grow to cover every concurrent committer; with a single
// committer the behavior degenerates to one Sync per commit, same as
// direct mode.
//
// Because each transaction's frames are encoded into one contiguous
// buffer before submission, frames of different transactions never
// interleave inside the log, and a crash can only tear the final
// frame of the final batch — which recovery already discards
// (readWAL), preserving the torn-frame guarantee.
type walFile struct {
	f      *os.File
	direct bool            // disable batching: every commit writes and syncs itself
	faults *fault.Registry // nil outside the simulation harness
	// empty reports that the file holds no bytes yet, so the next write
	// starts with walHeader. Only the writer of the moment (the leader,
	// or a direct-mode committer under mu) and reset touch it.
	empty bool

	mu      sync.Mutex // guards queue, dones, leading, and direct-mode writes
	queue   [][]byte
	dones   []chan error
	leading bool
}

func openWAL(dir string, direct bool, faults *fault.Registry) (*walFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat wal: %w", err)
	}
	return &walFile{f: f, direct: direct, faults: faults, empty: fi.Size() == 0}, nil
}

// commit appends one transaction's pre-encoded frames durably. In
// group-commit mode, concurrent callers are batched behind a leader
// that performs one Write and one Sync for the whole batch.
func (w *walFile) commit(buf []byte) error {
	if w.direct {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.writeSync(buf)
	}
	done := make(chan error, 1)
	w.mu.Lock()
	w.queue = append(w.queue, buf)
	w.dones = append(w.dones, done)
	if w.leading {
		// A leader is already flushing; it will pick this commit up in
		// its next round.
		w.mu.Unlock()
		return <-done
	}
	w.leading = true
	for {
		bufs, dones := w.queue, w.dones
		w.queue, w.dones = nil, nil
		w.mu.Unlock()

		var batch []byte
		if len(bufs) == 1 {
			batch = bufs[0]
		} else {
			total := 0
			for _, b := range bufs {
				total += len(b)
			}
			batch = make([]byte, 0, total)
			for _, b := range bufs {
				batch = append(batch, b...)
			}
		}
		err := w.writeSync(batch)
		for _, d := range dones {
			d <- err
		}

		w.mu.Lock()
		if len(w.queue) == 0 {
			w.leading = false
			w.mu.Unlock()
			return <-done
		}
		// More commits arrived during the flush: lead another round.
	}
}

func (w *walFile) writeSync(b []byte) error {
	if w.empty {
		// A new or reset log starts with its header, written with (and
		// torn like) the first batch.
		b = append([]byte(walHeader), b...)
	}
	if w.faults != nil {
		// Torn batch write: persist only the first n bytes (synced, so
		// a simulated crash+reopen deterministically finds the torn
		// prefix) and surface the failure to every committer in the
		// batch. n < 0 means nothing reached the file at all.
		if n, err := w.faults.CheckTear(fault.WALWrite, len(b)); err != nil {
			if n > 0 {
				w.empty = false
				if _, werr := w.f.Write(b[:n]); werr != nil {
					return fmt.Errorf("store: write wal: %w", werr)
				}
				if serr := w.f.Sync(); serr != nil {
					return fmt.Errorf("store: sync wal: %w", serr)
				}
			}
			return fmt.Errorf("store: write wal: %w", err)
		}
	}
	w.empty = false
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("store: write wal: %w", err)
	}
	if w.faults != nil {
		// Sync failure after a full write: the batch bytes are in the
		// file but were never acknowledged as durable — the classic
		// indeterminate commit a recovery must resolve atomically.
		if err := w.faults.Check(fault.WALSync); err != nil {
			return fmt.Errorf("store: sync wal: %w", err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: sync wal: %w", err)
	}
	if w.faults != nil {
		// Crash after durability but before acknowledgment: the commit
		// is on disk, yet the committer sees an error.
		if err := w.faults.Check(fault.WALAfterSync); err != nil {
			return fmt.Errorf("store: wal ack: %w", err)
		}
	}
	return nil
}

func (w *walFile) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	w.empty = true
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewind wal: %w", err)
	}
	return w.f.Sync()
}

func (w *walFile) close() error { return w.f.Close() }

// walScan summarizes one readWAL pass: the byte length of the clean
// prefix (header and intact frames) and how many trailing bytes fall
// after it.
type walScan struct {
	cleanLen  int64
	tornBytes int64
}

// readWAL checks the header, then verifies and decodes every frame. An
// empty file is an empty log. A file that ends mid-frame, or mid-way
// through the header, is reported via an error wrapping ErrTornTail —
// alongside the intact frames, never silently dropped — so recovery
// can record and repair it. A foreign header fails with ErrFormat, and
// a complete frame that fails its checksum or does not decode fails
// with ErrCorruptFrame; neither is a torn tail.
func readWAL(dir string) ([]frame, walScan, error) {
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, walScan{}, nil
	}
	if err != nil {
		return nil, walScan{}, fmt.Errorf("store: read wal: %w", err)
	}
	return scanWAL(data)
}

// scanWAL is readWAL over the file's bytes.
func scanWAL(data []byte) ([]frame, walScan, error) {
	var sc walScan
	total := int64(len(data))
	var frames []frame
	var torn error
	switch {
	case len(data) == 0:
	case len(data) < len(walHeader) && string(data) == walHeader[:len(data)]:
		torn = fmt.Errorf("%w: %d-byte header fragment", ErrTornTail, len(data))
	case !bytes.HasPrefix(data, []byte(walHeader)):
		return nil, sc, fmt.Errorf("%w: %s does not start with the wal header", ErrFormat, walName)
	default:
		data = data[len(walHeader):]
		sc.cleanLen = int64(len(walHeader))
		for len(data) > 0 {
			payload, n, err := ReadFrame(data, math.MaxUint32)
			if errors.Is(err, ErrTornTail) {
				torn = err
				break
			}
			if err == nil {
				var f frame
				if f, err = decodeFrame(payload); err == nil {
					frames = append(frames, f)
					data = data[n:]
					sc.cleanLen += int64(n)
					continue
				}
			}
			return nil, sc, fmt.Errorf("store: wal frame %d at byte %d: %w", len(frames), sc.cleanLen, err)
		}
	}
	sc.tornBytes = total - sc.cleanLen
	if torn != nil {
		return frames, sc, fmt.Errorf("store: wal has %d trailing byte(s) after %d clean frame(s): %w",
			sc.tornBytes, len(frames), torn)
	}
	return frames, sc, nil
}

// snapshotImage is the content of a checkpoint. Firings and FiringSeq
// persist the egress feed across the WAL reset that follows a
// checkpoint: the feed's records live in the WAL only until the next
// checkpoint folds them into the snapshot.
type snapshotImage struct {
	Next      OID
	Objects   []*Record
	Firings   []FiringRecord
	FiringSeq uint64
}

// snapshotChunk is the number of records per checkpoint record frame.
const snapshotChunk = 256

// encodeSnapshot returns the checkpoint file image: the header, an
// opCheckpoint frame, the records in OID order in frames of up to
// snapshotChunk, then one opFirings frame with the whole feed.
func encodeSnapshot(img snapshotImage) []byte {
	slices.SortFunc(img.Objects, func(a, b *Record) int { return cmp.Compare(a.OID, b.OID) })
	e := encoder{buf: []byte(snapshotHeader)}
	e.frame(&frame{Op: opCheckpoint, OID: img.Next, Seq: img.FiringSeq, Count: uint64(len(img.Objects))})
	for recs := img.Objects; len(recs) > 0; {
		n := min(len(recs), snapshotChunk)
		e.puts(0, recs[:n])
		recs = recs[n:]
	}
	e.frame(&frame{Op: opFirings, Firings: img.Firings})
	return e.buf
}

func writeSnapshot(dir string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: create dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "snapshot-*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	// Atomic publish: a crash leaves either the old or the new snapshot.
	if err := os.Rename(tmp.Name(), filepath.Join(dir, snapshotName)); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	return nil
}

// readSnapshot loads the checkpoint, reporting ok false when there is
// none. The file is published whole by rename, so any flaw — a foreign
// header (ErrFormat), a torn or corrupt frame, frames out of order, a
// record count that disagrees with the header — fails with
// ErrCorruptFrame rather than loading part of it.
func readSnapshot(dir string) (img snapshotImage, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		if _, lerr := os.Stat(filepath.Join(dir, legacySnapshotName)); lerr == nil {
			return img, false, fmt.Errorf("%w: %s is a checkpoint of the earlier gob format", ErrFormat, legacySnapshotName)
		}
		return img, false, nil
	}
	if err != nil {
		return img, false, fmt.Errorf("store: read snapshot: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(snapshotHeader)) {
		return img, false, fmt.Errorf("%w: %s does not start with the checkpoint header", ErrFormat, snapshotName)
	}
	data = data[len(snapshotHeader):]
	var count uint64
	for i := 0; len(data) > 0; i++ {
		payload, n, err := ReadFrame(data, math.MaxUint32)
		if err != nil {
			return img, false, fmt.Errorf("store: snapshot frame %d: %w: %v", i, ErrCorruptFrame, err)
		}
		data = data[n:]
		f, err := decodeFrame(payload)
		if err != nil {
			return img, false, fmt.Errorf("store: snapshot frame %d: %w", i, err)
		}
		switch {
		case i == 0 && f.Op == opCheckpoint:
			img.Next, img.FiringSeq, count = f.OID, f.Seq, f.Count
			img.Objects = make([]*Record, 0, min(count, uint64(len(data))))
		case i > 0 && (f.Op == opPut || f.Op == opPutN) && uint64(len(img.Objects)+len(f.Recs)) <= count:
			img.Objects = append(img.Objects, f.Recs...)
		case i > 0 && f.Op == opFirings && len(data) == 0 && uint64(len(img.Objects)) == count:
			img.Firings = f.Firings
			return img, true, nil
		default:
			return img, false, fmt.Errorf("%w: snapshot frame %d (op %d) out of place", ErrCorruptFrame, i, f.Op)
		}
	}
	return img, false, fmt.Errorf("%w: snapshot ends before its firings frame", ErrCorruptFrame)
}

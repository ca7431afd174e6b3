package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"ode/internal/fault"
)

// WAL frame operations.
const (
	opBegin byte = iota + 1
	opPut
	opDelete
	opCommit
	// opPutN carries every dirty record of one transaction in a single
	// frame (frame.Recs). Batch commits use it so a transaction that
	// touched N objects appends one record frame instead of N — one gob
	// header, one length prefix — and a torn tail can only lose the
	// whole record set, never a prefix of it.
	opPutN
	// opFirings carries the trigger-firing records captured by one
	// transaction (frame.Firings), appended between the transaction's
	// record frames and its opCommit. Riding the same commit batch makes
	// the firings exactly as durable as the transaction itself: a crash
	// either preserves both or neither.
	opFirings
)

// frame is one WAL record. Frames are length-prefixed independent gob
// blobs, so a torn final frame is detected and discarded on recovery
// and appending after reopen needs no encoder state.
type frame struct {
	Op      byte
	TxID    uint64
	OID     OID
	Rec     *Record
	Recs    []*Record      // opPutN only; absent (nil) in all other frames
	Firings []FiringRecord // opFirings only; absent (nil) in all other frames
}

const (
	walName      = "wal.log"
	snapshotName = "snapshot.gob"
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
	return &walFile{f: f, direct: direct, faults: faults}, nil
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
	if w.faults != nil {
		// Torn batch write: persist only the first n bytes (synced, so
		// a simulated crash+reopen deterministically finds the torn
		// prefix) and surface the failure to every committer in the
		// batch. n < 0 means nothing reached the file at all.
		if n, err := w.faults.CheckTear(fault.WALWrite, len(b)); err != nil {
			if n > 0 {
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
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewind wal: %w", err)
	}
	return w.f.Sync()
}

func (w *walFile) close() error { return w.f.Close() }

// encodeFrame appends one length-prefixed gob-encoded frame to buf.
func encodeFrame(buf *bytes.Buffer, fr frame) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&fr); err != nil {
		return fmt.Errorf("store: encode wal frame: %w", err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(body.Len()))
	buf.Write(hdr[:])
	buf.Write(body.Bytes())
	return nil
}

// ErrTornTail reports that the log ended in a torn or undecodable
// trailing record — the expected residue of a crash mid-append.
// readWAL still returns every intact frame before the tear; callers
// decide whether to repair (truncate to the clean prefix) or refuse.
var ErrTornTail = errors.New("store: torn wal tail")

// ErrCorruptFrame reports a WAL frame that decoded but cannot be
// applied. Recovery refuses to open the store rather than guess.
var ErrCorruptFrame = errors.New("store: corrupt wal frame")

// walScan summarizes one readWAL pass: the byte length of the clean
// frame prefix and how many trailing bytes fall after it.
type walScan struct {
	cleanLen  int64
	tornBytes int64
}

// readWAL parses all complete frames. A torn trailing frame (crash
// mid-append) or any undecodable tail is reported via an error
// wrapping ErrTornTail — alongside the intact frames, never silently
// dropped — so recovery can record and repair it.
func readWAL(dir string) ([]frame, walScan, error) {
	var sc walScan
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, sc, nil
	}
	if err != nil {
		return nil, sc, fmt.Errorf("store: read wal: %w", err)
	}
	total := int64(len(data))
	var frames []frame
	reason := ""
	for len(data) > 0 {
		if len(data) < 4 {
			reason = fmt.Sprintf("%d-byte length-prefix fragment", len(data))
			break
		}
		n := binary.LittleEndian.Uint32(data[:4])
		if len(data) < int(4+n) {
			reason = fmt.Sprintf("frame promises %d body bytes, only %d present", n, len(data)-4)
			break
		}
		var fr frame
		if err := gob.NewDecoder(bytes.NewReader(data[4 : 4+n])).Decode(&fr); err != nil {
			reason = fmt.Sprintf("undecodable frame body: %v", err)
			break
		}
		frames = append(frames, fr)
		data = data[4+n:]
		sc.cleanLen += int64(4 + n)
	}
	sc.tornBytes = total - sc.cleanLen
	if sc.tornBytes > 0 {
		return frames, sc, fmt.Errorf("store: wal has %d trailing byte(s) after %d clean frame(s) (%s): %w",
			sc.tornBytes, len(frames), reason, ErrTornTail)
	}
	return frames, sc, nil
}

// snapshotImage is the gob payload of a checkpoint. Firings and
// FiringSeq persist the egress feed across the WAL reset that follows
// a checkpoint: the feed's records live in the WAL only until the next
// checkpoint folds them into the snapshot.
type snapshotImage struct {
	Next      OID
	Objects   map[OID]*Record
	Firings   []FiringRecord
	FiringSeq uint64
}

func writeSnapshot(dir string, next OID, objects map[OID]*Record, firings []FiringRecord, firingSeq uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: create dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "snapshot-*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	img := snapshotImage{Next: next, Objects: objects, Firings: firings, FiringSeq: firingSeq}
	if err := gob.NewEncoder(tmp).Encode(&img); err != nil {
		tmp.Close()
		return fmt.Errorf("store: encode snapshot: %w", err)
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

func readSnapshot(dir string) (snapshotImage, error) {
	var img snapshotImage
	f, err := os.Open(filepath.Join(dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return img, nil
	}
	if err != nil {
		return img, fmt.Errorf("store: open snapshot: %w", err)
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(&img); err != nil {
		return img, fmt.Errorf("store: decode snapshot: %w", err)
	}
	return img, nil
}

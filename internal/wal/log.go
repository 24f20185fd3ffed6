package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tabs/internal/disk"
	"tabs/internal/simclock"
	"tabs/internal/stats"
	"tabs/internal/trace"
)

// Log manages the node's common write-ahead log on a circular region of the
// simulated disk. Records are appended to a volatile buffer and become
// durable when forced — by the commit protocol, by the write-ahead rule
// before a page steal, or when the buffer fills (§3.2.2).
//
// Forcing is a *group commit*: concurrent Force callers do not each pay a
// Stable Storage Write. The first caller to find no flush in flight becomes
// the leader: it snapshots the pending region [durableLSN, nextLSN), drops
// the mutex, and writes the whole region as one sector batch while later
// callers park on a condition variable. When the leader finishes it wakes
// every waiter; waiters whose target is now ≤ durableLSN return without
// touching the disk, and one unsatisfied waiter (if any) leads the next
// batch. Append and force are pipelined: because the leader flushes a
// snapshot without holding the log mutex, Append never blocks behind an
// in-flight disk write — newly appended records simply land in the next
// batch. A lone committer always leads its own batch of one, so the
// sequential Section 5 benchmarks count exactly one Stable Storage Write
// per force (Tables 5-2/5-3).
//
// Physical layout: the first sector of the region is the anchor (checkpoint
// pointer and low-water mark); the remaining sectors hold the record stream
// addressed by LSN modulo the data capacity.
type Log struct {
	mu   sync.Mutex
	d    *disk.Disk
	base disk.Addr // anchor sector
	data int64     // number of data sectors
	rec  *stats.Recorder
	tr   *trace.Tracer

	fh FaultHook // Config.FaultHook

	lowLSN     LSN // oldest retained byte (record boundary)
	durableLSN LSN // everything below is on disk
	nextLSN    LSN // next byte to be assigned
	ckptLSN    LSN // LSN of the last checkpoint record

	buf      []byte // appended but not yet forced bytes [durableLSN, nextLSN)
	index    []LSN  // start LSNs of retained records, ascending
	fullWarn bool

	// tail is the durable content of the sector that holds durableLSN:
	// the bytes below durableLSN, zero from it on (all zero when
	// durableLSN is sector-aligned). A force starts its first page from
	// it instead of reading the sector back. Only the flusher touches it
	// (l.flushing guards it, with l.mu released), and recoverEnd while
	// the log is being mounted.
	tail [disk.SectorSize]byte

	// Group-commit state. flushCond is signalled each time a flush
	// generation completes (successfully or not); parked maps a waiting
	// Force caller's token to its target LSN so the leader can size the
	// group it amortized.
	flushCond *sync.Cond
	flushing  bool // a leader is writing to disk with mu released
	flushGen  uint64
	flushErr  error // outcome of the generation that just completed
	parked    map[uint64]LSN
	parkSeq   uint64
}

// Errors returned by the log manager.
var (
	ErrLogFull    = errors.New("wal: log space exhausted; reclamation required")
	ErrBadAnchor  = errors.New("wal: anchor sector corrupt")
	ErrOutOfRange = errors.New("wal: LSN out of retained range")
)

const anchorMagic = 0x7AB5106A

// firstLSN is where a fresh log starts; LSN 0 is reserved as NilLSN.
const firstLSN LSN = 1

// Config describes where a Log lives and how it is instrumented.
type Config struct {
	Disk    *disk.Disk
	Base    disk.Addr // first sector of the log region (the anchor)
	Sectors int64     // total sectors including the anchor
	Rec     *stats.Recorder
	Trace   *trace.Tracer
	// FaultHook, when set, is consulted at named points before the log
	// touches state: "wal.append" just before a record is admitted to the
	// volatile buffer, and "wal.force" just before a batch goes to disk. A
	// non-nil error fails the operation. The fault-injection layer
	// (internal/fault) supplies deterministic seeded hooks; nil (the
	// default) injects nothing.
	FaultHook FaultHook
}

// FaultHook is the log's fault-injection callback; see Config.FaultHook.
type FaultHook func(point string) error

// Open mounts the log region, reading the anchor and scanning forward from
// the low-water mark to find the durable end of the log, exactly as crash
// recovery must (§3.2.2). A region whose anchor is unwritten is formatted
// as an empty log.
func Open(cfg Config) (*Log, error) {
	if cfg.Sectors < 3 {
		return nil, fmt.Errorf("wal: region needs at least 3 sectors (anchor, data, one of slack), got %d", cfg.Sectors)
	}
	l := &Log{
		d:      cfg.Disk,
		base:   cfg.Base,
		data:   cfg.Sectors - 1,
		rec:    cfg.Rec,
		tr:     cfg.Trace,
		fh:     cfg.FaultHook,
		parked: make(map[uint64]LSN),
	}
	l.flushCond = sync.NewCond(&l.mu)
	var sector [disk.SectorSize]byte
	if _, err := l.d.Read(l.base, sector[:]); err != nil {
		return nil, fmt.Errorf("wal: reading anchor: %w", err)
	}
	if binary.BigEndian.Uint32(sector[0:4]) != anchorMagic {
		// Fresh region: format an empty log.
		l.lowLSN, l.durableLSN, l.nextLSN = firstLSN, firstLSN, firstLSN
		if err := l.writeAnchor(); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.lowLSN = LSN(binary.BigEndian.Uint64(sector[4:12]))
	l.ckptLSN = LSN(binary.BigEndian.Uint64(sector[12:20]))
	if l.lowLSN == 0 {
		return nil, ErrBadAnchor
	}
	if err := l.recoverEnd(); err != nil {
		return nil, err
	}
	return l, nil
}

// recoverEnd scans forward from lowLSN validating checksums and embedded
// LSNs until the stream stops making sense; that point is the durable end.
// When the end falls mid-sector it loads that sector's durable prefix into
// l.tail, so that no force has to read it back.
//
// Only a decode failure (ErrCorrupt: bad checksum, wrong embedded LSN,
// nonsense length — what stale or torn sectors past the true end look
// like) marks the end of the log. A read that fails at the disk layer is
// a media error on a sector that may hold committed records; treating it
// as end-of-log would silently truncate the log and lose committed
// transactions, so it fails the mount instead.
func (l *Log) recoverEnd() error {
	lsn := l.lowLSN
	l.index = l.index[:0]
	// Only the frames' validity and lengths matter here, so one buffer
	// and one record serve the whole scan.
	var (
		frame []byte
		r     Record
	)
	for {
		var err error
		if frame, err = l.readFrame(frame, lsn, true); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				return fmt.Errorf("wal: finding log end at LSN %d: %w", lsn, err)
			}
			break // end of valid log
		}
		n, err := decodeInto(&r, frame, lsn)
		if err != nil {
			break // end of valid log
		}
		l.index = append(l.index, lsn)
		lsn += LSN(n)
	}
	l.durableLSN = lsn
	l.nextLSN = lsn
	l.buf = nil
	if inSec := uint64(lsn) % disk.SectorSize; inSec != 0 {
		addr, _ := l.sectorFor(lsn)
		if _, err := l.d.Read(addr, l.tail[:]); err != nil {
			return fmt.Errorf("wal: reading log tail sector at LSN %d: %w", lsn, err)
		}
		clear(l.tail[inSec:])
	}
	return nil
}

func (l *Log) writeAnchor() error {
	var sector [disk.SectorSize]byte
	binary.BigEndian.PutUint32(sector[0:4], anchorMagic)
	binary.BigEndian.PutUint64(sector[4:12], uint64(l.lowLSN))
	binary.BigEndian.PutUint64(sector[12:20], uint64(l.ckptLSN))
	return l.d.Write(l.base, sector[:], 0)
}

// sectorFor maps a log byte offset to its disk sector and intra-sector
// offset.
func (l *Log) sectorFor(lsn LSN) (disk.Addr, int) {
	byteOff := uint64(lsn)
	sec := (byteOff / disk.SectorSize) % uint64(l.data)
	return l.base + 1 + disk.Addr(sec), int(byteOff % disk.SectorSize)
}

// Capacity returns the byte capacity of the record region. One sector is
// held back: a force writes whole sectors, zero past the append point, so
// the sector under the append point must never be the one that, a lap
// behind, still holds the low-water record.
func (l *Log) Capacity() int64 { return (l.data - 1) * disk.SectorSize }

// SpaceUsed returns bytes between the low-water mark and the append point.
func (l *Log) SpaceUsed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.nextLSN - l.lowLSN)
}

// SpaceLeft returns the free byte capacity before the log is full.
func (l *Log) SpaceLeft() int64 { return l.Capacity() - l.SpaceUsed() }

// NearlyFull reports whether less than 1/8 of the log space remains; the
// Recovery Manager uses this to trigger reclamation (§3.2.2).
func (l *Log) NearlyFull() bool { return l.SpaceLeft() < l.Capacity()/8 }

// LowLSN returns the oldest retained LSN.
func (l *Log) LowLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lowLSN
}

// DurableLSN returns the LSN up to which the log is on non-volatile
// storage (exclusive).
func (l *Log) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// CheckpointLSN returns the LSN of the most recent checkpoint record, or 0.
func (l *Log) CheckpointLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptLSN
}

// Append assigns the next LSN to r, serializes it into the volatile buffer,
// and returns the assigned LSN. The record is not durable until Force. On
// failure r is left exactly as the caller passed it: Encode needs the
// candidate LSN in place (the frame checksum covers it), so it is staged
// and rolled back unless the append commits.
func (l *Log) Append(r *Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	prevLSN := r.LSN
	r.LSN = l.nextLSN
	// Encode directly into the tail of the volatile buffer — no per-append
	// frame allocation. Staged bytes are dropped by truncating back to the
	// original length if the append does not commit. Extending l.buf is safe
	// against an in-flight group flush: the leader snapshots a subslice of
	// the pending prefix, which append never mutates (growth reallocates).
	orig := len(l.buf)
	buf, err := AppendEncode(l.buf, r)
	if err != nil {
		r.LSN = prevLSN
		return 0, err
	}
	n := len(buf) - orig
	if int64(l.nextLSN-l.lowLSN)+int64(n) > l.Capacity() {
		r.LSN = prevLSN
		l.buf = buf[:orig]
		return 0, ErrLogFull
	}
	if l.fh != nil {
		if err := l.fh("wal.append"); err != nil {
			r.LSN = prevLSN
			l.buf = buf[:orig]
			return 0, fmt.Errorf("wal: append: %w", err)
		}
	}
	l.buf = buf
	l.index = append(l.index, r.LSN)
	l.nextLSN += LSN(n)
	l.tr.Count("wal.append.records", 1)
	l.tr.Count("wal.append.bytes", float64(n))
	return r.LSN, nil
}

// Force makes every record with LSN < upTo durable. Passing the current
// NextLSN (or any larger value) forces the whole buffer. Each log page
// batch written charges one Stable Storage Write primitive (Table 5-1), so
// N concurrent committers coalesced into one group force share a single
// primitive charge between them.
func (l *Log) Force(upTo LSN) error {
	l.mu.Lock()
	if upTo > l.nextLSN {
		upTo = l.nextLSN
	}
	for {
		if upTo <= l.durableLSN {
			l.mu.Unlock()
			return nil
		}
		if !l.flushing {
			return l.leadFlush() // releases l.mu
		}
		// A leader is already writing. Park until its generation
		// completes; the flush may or may not cover our target (records
		// appended after the leader snapshotted land in the next batch).
		tok := l.parkSeq
		l.parkSeq++
		l.parked[tok] = upTo
		l.tr.Gauge("wal.force.waiters", float64(len(l.parked)))
		gen := l.flushGen
		for l.flushGen == gen {
			l.flushCond.Wait()
		}
		delete(l.parked, tok)
		l.tr.Gauge("wal.force.waiters", float64(len(l.parked)))
		if err := l.flushErr; err != nil && upTo > l.durableLSN {
			// The flush that should have covered us failed; surface the
			// write error rather than silently retrying on the caller's
			// behalf.
			l.mu.Unlock()
			return err
		}
	}
}

// leadFlush runs one group-commit generation. Called with l.mu held and
// l.flushing false; releases the mutex for the duration of the disk write
// so appends (and future forces) proceed while the batch is in flight.
func (l *Log) leadFlush() error {
	start, end := l.durableLSN, l.nextLSN
	// Snapshot the region being flushed. Appends only ever extend l.buf,
	// never mutate the pending prefix, so a subslice stays stable while
	// the mutex is released.
	data := l.buf[:end-start]
	l.flushing = true
	l.mu.Unlock()

	err := l.writeRange(start, end, data)

	l.mu.Lock()
	if err == nil {
		l.durableLSN = end
		// Compact by copying the unflushed tail to the front rather than
		// re-slicing forward: the backing array is reused for future appends
		// instead of being abandoned a prefix at a time, which kept every
		// flushed generation's bytes reachable and forced steady regrowth.
		rest := copy(l.buf, l.buf[end-start:])
		l.buf = l.buf[:rest]
		// The group this write amortized: the leader plus every parked
		// waiter whose target the batch satisfied.
		group := 1
		for _, target := range l.parked {
			if target <= end {
				group++
			}
		}
		l.tr.Observe("wal.force.group_size", float64(group))
	}
	l.flushing = false
	l.flushGen++
	l.flushErr = err
	l.flushCond.Broadcast()
	l.mu.Unlock()
	return err
}

// writeRange writes the log bytes [start, end) — supplied in data — to the
// sectors that cover them, each sector once and none read: the first page
// starts from l.tail (the durable bytes below start), later pages from
// zero, and every page is zero past end. We force the entire pending
// region once any of it must go (a page of log data is the force unit,
// §5.1). One call is one Stable Storage Write primitive — "the elapsed
// time required for the Recovery Manager to force a page of log data to
// non-volatile storage" (§5.1) — regardless of how many sectors the
// records straddle or how many committers share the batch. Only a fully
// successful write advances l.tail, to the last page written; after a
// failed or torn write it still holds the durable prefix, which a retry
// rewrites. Safe without l.mu: at most one flusher runs at a time
// (l.flushing), and nothing else writes log data sectors.
func (l *Log) writeRange(start, end LSN, data []byte) error {
	forceStart := time.Now()
	sp := l.tr.Begin("wal", "force").Annotatef("bytes=%d", int64(end-start))
	if l.fh != nil {
		if err := l.fh("wal.force"); err != nil {
			err = fmt.Errorf("wal: forcing log page: %w", err)
			sp.EndErr(err)
			return err
		}
	}
	firstSec := uint64(start) / disk.SectorSize
	lastSec := (uint64(end) - 1) / disk.SectorSize
	page := l.tail
	for sec := firstSec; sec <= lastSec; sec++ {
		if sec > firstSec {
			page = [disk.SectorSize]byte{}
		}
		secStart := LSN(sec * disk.SectorSize)
		addr, _ := l.sectorFor(secStart)
		// Fill the page from the overlap of this sector with [start, end).
		lo, hi := secStart, secStart+disk.SectorSize
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		copy(page[lo-secStart:], data[lo-start:hi-start])
		if err := l.d.Write(addr, page[:], 0); err != nil {
			err = fmt.Errorf("wal: forcing log page: %w", err)
			sp.EndErr(err)
			return err
		}
	}
	if uint64(end)%disk.SectorSize == 0 {
		l.tail = [disk.SectorSize]byte{}
	} else {
		l.tail = page
	}
	if l.rec != nil {
		l.rec.Record(simclock.StableWrite)
	}
	l.tr.Count("wal.force.count", 1)
	l.tr.Count("wal.force.bytes", float64(int64(end-start)))
	l.tr.Observe("wal.force.batch_bytes", float64(int64(end-start)))
	l.tr.ObserveSince("wal.force.ms", forceStart)
	sp.End()
	return nil
}

// readBytes appends to dst the n bytes starting at lsn: what is durable
// from the disk, the rest from the volatile buffer. Caller holds l.mu.
func (l *Log) readBytes(dst []byte, lsn LSN, n int) ([]byte, error) {
	end := lsn + LSN(n)
	if lsn < l.lowLSN || end > l.nextLSN {
		return nil, fmt.Errorf("%w: [%d,%d) retained [%d,%d)", ErrOutOfRange, lsn, end, l.lowLSN, l.nextLSN)
	}
	if durable := min(end, l.durableLSN); lsn < durable {
		var err error
		if dst, err = l.readRawDurable(dst, lsn, int(durable-lsn)); err != nil {
			return nil, err
		}
		lsn = durable
	}
	if lsn < end {
		dst = append(dst, l.buf[lsn-l.durableLSN:end-l.durableLSN]...)
	}
	return dst, nil
}

// readRawDurable appends to dst n bytes straight off the disk, without
// range checks against nextLSN (which is unknown during end recovery).
func (l *Log) readRawDurable(dst []byte, lsn LSN, n int) ([]byte, error) {
	for end := lsn + LSN(n); lsn < end; {
		addr, inSec := l.sectorFor(lsn)
		var page [disk.SectorSize]byte
		if _, err := l.d.Read(addr, page[:]); err != nil {
			return nil, err
		}
		avail := page[inSec:]
		if lsn+LSN(len(avail)) > end {
			avail = avail[:end-lsn]
		}
		dst = append(dst, avail...)
		lsn += LSN(len(avail))
	}
	return dst, nil
}

// readFrame reads the whole frame of the record at lsn — the 4-byte length
// and as many bytes as it announces — into buf's backing array, growing it
// as needed, and returns the frame. raw reads durable bytes only, as end
// recovery must while no buffer exists; a length no record can have is
// then what stale sectors past the true end look like. Caller holds l.mu
// (or, for raw, is still mounting the log).
func (l *Log) readFrame(buf []byte, lsn LSN, raw bool) ([]byte, error) {
	read := l.readBytes
	if raw {
		read = l.readRawDurable
	}
	buf, err := read(buf[:0], lsn, 4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(buf))
	if raw && (n < headerSize || n > MaxBodySize+headerSize+512) {
		return nil, ErrCorrupt
	}
	return read(buf[:0], lsn, 4+n)
}

// readInto decodes the record at lsn into r over frame, which it returns
// (possibly regrown) for the next call. r.Body points into frame.
func (l *Log) readInto(r *Record, frame []byte, lsn LSN) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	frame, err := l.readFrame(frame, lsn, false)
	if err != nil {
		return nil, err
	}
	_, err = decodeInto(r, frame, lsn)
	return frame, err
}

// ReadRecord returns the record starting at lsn. The record is the
// caller's to keep.
func (l *Log) ReadRecord(lsn LSN) (*Record, error) {
	r := &Record{}
	if _, err := l.readInto(r, nil, lsn); err != nil {
		return nil, err
	}
	return r, nil
}

// ScanForward calls fn for every retained record with from ≤ LSN, in LSN
// order, stopping early if fn returns false. The record, Body included, is
// fn's only until it returns: the scan decodes every record over the one
// before (a restart reads the whole log tail two or three times over).
// Records reclaimed between the index snapshot and the per-record read are
// skipped rather than surfaced as ErrOutOfRange: a record below the
// advanced low-water mark was, by the reclamation invariant, needed by no
// retained transaction.
func (l *Log) ScanForward(from LSN, fn func(*Record) (bool, error)) error {
	var (
		frame []byte
		r     = &Record{}
	)
	for _, lsn := range l.indexFrom(from) {
		var err error
		if frame, err = l.readInto(r, frame, lsn); err != nil {
			if l.reclaimedSince(lsn, err) {
				continue
			}
			return err
		}
		cont, err := fn(r)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// ScanBackward calls fn for every retained record with LSN ≤ from, in
// reverse LSN order, stopping early if fn returns false. Value-logging
// crash recovery is a single backward pass (§2.1.3). Concurrently
// reclaimed records are skipped, and the record is fn's only until it
// returns, as in ScanForward.
func (l *Log) ScanBackward(from LSN, fn func(*Record) (bool, error)) error {
	var (
		frame []byte
		r     = &Record{}
	)
	idx := l.indexUpTo(from)
	for i := len(idx) - 1; i >= 0; i-- {
		var err error
		if frame, err = l.readInto(r, frame, idx[i]); err != nil {
			if l.reclaimedSince(idx[i], err) {
				continue
			}
			return err
		}
		cont, err := fn(r)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// reclaimedSince reports whether a per-record read failure during a scan
// is explained by a concurrent Reclaim having trimmed lsn: the read
// range-checks under the mutex, so ErrOutOfRange on an LSN now below the
// low-water mark means the record was reclaimed after the scan snapshotted
// the index, not that the log is corrupt.
func (l *Log) reclaimedSince(lsn LSN, err error) bool {
	return errors.Is(err, ErrOutOfRange) && lsn < l.LowLSN()
}

// indexFrom returns a copy of the tail of the ascending LSN index starting
// at the first entry ≥ from. The index is sorted, so the cut point is a
// binary search; the copy keeps the snapshot stable against a concurrent
// Reclaim compacting the index in place.
func (l *Log) indexFrom(from LSN) []LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.index), func(i int) bool { return l.index[i] >= from })
	return append([]LSN(nil), l.index[i:]...)
}

// indexUpTo returns a copy of the head of the index: every entry ≤ from.
func (l *Log) indexUpTo(from LSN) []LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.index), func(i int) bool { return l.index[i] > from })
	return append([]LSN(nil), l.index[:i]...)
}

// SetCheckpoint records lsn as the most recent checkpoint and durably
// updates the anchor. The checkpoint record itself must already be forced.
func (l *Log) SetCheckpoint(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn >= l.durableLSN {
		return fmt.Errorf("wal: checkpoint LSN %d not durable (durable=%d)", lsn, l.durableLSN)
	}
	l.ckptLSN = lsn
	return l.writeAnchor()
}

// Reclaim advances the low-water mark to newLow, releasing log space. The
// caller (the Recovery Manager's reclamation algorithm, §3.2.2) must ensure
// no retained transaction or dirty page needs records below newLow.
func (l *Log) Reclaim(newLow LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if newLow < l.lowLSN {
		return nil
	}
	if newLow > l.durableLSN {
		return fmt.Errorf("wal: cannot reclaim past durable LSN %d", l.durableLSN)
	}
	// newLow must be a record boundary (or the exact end).
	i := sort.Search(len(l.index), func(i int) bool { return l.index[i] >= newLow })
	if newLow != l.nextLSN && (i == len(l.index) || l.index[i] != newLow) {
		return fmt.Errorf("wal: reclaim target %d is not a record boundary", newLow)
	}
	l.lowLSN = newLow
	l.index = append(l.index[:0], l.index[i:]...)
	return l.writeAnchor()
}

// AppendAndForce is the common "write a record and make it durable" path
// used by commit processing. Under group commit, concurrent callers
// coalesce: each appends its record, then the force either leads one batch
// covering every pending record or rides a batch another committer pays
// for.
func (l *Log) AppendAndForce(r *Record) (LSN, error) {
	lsn, err := l.Append(r)
	if err != nil {
		return 0, err
	}
	if err := l.Force(lsn + 1); err != nil {
		return 0, err
	}
	return lsn, nil
}

// TransBackChain walks the backward chain of records written by one
// transaction, starting at lastLSN, calling fn newest-first. This is the
// path abort processing follows (§3.2.2).
func (l *Log) TransBackChain(lastLSN LSN, fn func(*Record) (bool, error)) error {
	for lsn := lastLSN; lsn != NilLSN; {
		r, err := l.ReadRecord(lsn)
		if err != nil {
			return err
		}
		cont, err := fn(r)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
		lsn = r.PrevLSN
	}
	return nil
}

package srvlib

import (
	"errors"
	"fmt"

	"tabs/internal/lock"
	"tabs/internal/trace"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// This file implements the routines of Table 3-1 not already defined on
// Server: address arithmetic, locking, paging control, logging, and
// ExecuteTransaction. Routine names follow the paper.

// VirtualAddress is a data server's view of a location in its recoverable
// segment: a byte offset from the segment base, exactly as TABS servers
// computed cell addresses by adding offsets to the base of the mapped
// segment (§4.1).
type VirtualAddress uint32

// ReadPermanentData maps the server's recoverable data into (virtual)
// memory and returns its base address and size (Table 3-1). The base is
// always offset zero of the segment.
func (s *Server) ReadPermanentData() (VirtualAddress, uint32, error) {
	pages, err := s.k.SegmentPages(s.seg)
	if err != nil {
		return 0, 0, err
	}
	return 0, pages * types.PageSize, nil
}

// CreateObjectID converts a virtual address and length into an ObjectID
// (Table 3-1): data servers work with virtual addresses, the log manager
// with the disk addresses ObjectIDs carry.
func (s *Server) CreateObjectID(va VirtualAddress, length uint32) types.ObjectID {
	return types.ObjectID{Segment: s.seg, Offset: uint32(va), Length: length}
}

// ConvertObjectIDToVirtualAddress recovers the virtual address inside an
// ObjectID (Table 3-1).
func (s *Server) ConvertObjectIDToVirtualAddress(obj types.ObjectID) VirtualAddress {
	return VirtualAddress(obj.Offset)
}

// --- Locking -----------------------------------------------------------------

// LockObject acquires a lock, waiting if it is unavailable (Table 3-1).
// The wait is a coroutine switch: other operations run meanwhile. A
// time-out is reported as an error; TABS resolves deadlock by time-outs
// (§2.1.3), and the caller normally aborts the transaction.
func (s *Server) LockObject(tid types.TransID, obj types.ObjectID, mode lock.Mode) error {
	s.ensureJoined(tid)
	// Append-formatted annotations: this span is begun on every object
	// access, and fmt-based formatting here dominated whole-node profiles.
	sp := trace.SetTIDAppend(s.tr.Begin("lock", "acquire"), tid)
	trace.AnnotateAppend(sp, "obj=", obj)
	trace.AnnotateAppend(sp, "mode=", mode)
	if s.locks.TryLock(tid, obj, mode) {
		sp.End()
		return nil
	}
	err := s.await(func() error { return s.locks.Lock(tid, obj, mode) })
	sp.Annotate("waited=true").EndErr(err)
	return err
}

// ConditionallyLockObject attempts a lock and returns false immediately if
// unavailable (Table 3-1; added for the weak queue server, §4.2).
func (s *Server) ConditionallyLockObject(tid types.TransID, obj types.ObjectID, mode lock.Mode) bool {
	s.ensureJoined(tid)
	return s.locks.TryLock(tid, obj, mode)
}

// IsObjectLocked reports whether any lock is set on obj (Table 3-1). The
// weak queue and IO servers use it to observe other transactions'
// progress (§4.2, §4.3).
func (s *Server) IsObjectLocked(obj types.ObjectID) bool {
	return s.locks.IsLocked(obj)
}

// --- Paging control ------------------------------------------------------------

// PinObject prevents the kernel from paging the object to secondary
// storage (Table 3-1), ensuring its permanent representation is not
// changed before all modifications to it have been logged.
func (s *Server) PinObject(obj types.ObjectID) error {
	if err := s.k.Pin(obj); err != nil {
		return err
	}
	s.smu.Lock()
	for _, p := range obj.Pages() {
		s.pins[p]++
	}
	s.smu.Unlock()
	return nil
}

// UnPinObject releases one pin on the object (Table 3-1).
func (s *Server) UnPinObject(obj types.ObjectID) error {
	s.smu.Lock()
	for _, p := range obj.Pages() {
		if s.pins[p] > 0 {
			s.pins[p]--
			if s.pins[p] == 0 {
				delete(s.pins, p)
			}
		}
	}
	s.smu.Unlock()
	return s.k.Unpin(obj)
}

// UnPinAllObjects drops every pin this server holds (Table 3-1).
func (s *Server) UnPinAllObjects() error {
	s.smu.Lock()
	pages := make(map[types.PageID]int, len(s.pins))
	for p, n := range s.pins {
		pages[p] = n
	}
	s.pins = make(map[types.PageID]int)
	s.smu.Unlock()
	for p, n := range pages {
		obj := types.ObjectID{Segment: p.Segment, Offset: p.Page * types.PageSize, Length: types.PageSize}
		for i := 0; i < n; i++ {
			if err := s.k.Unpin(obj); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Reading and writing recoverable data ---------------------------------------

// Read copies the object's current bytes out of the recoverable segment.
func (s *Server) Read(obj types.ObjectID) ([]byte, error) {
	return s.k.Read(obj)
}

// Write modifies the object in the mapped segment. The object's pages must
// be pinned — the write-ahead discipline requires that a modified page not
// reach disk before its log records, and the pin is what holds the page
// (§3.1.1). Unpinned writes are rejected to catch server bugs.
func (s *Server) Write(obj types.ObjectID, data []byte) error {
	s.smu.Lock()
	for _, p := range obj.Pages() {
		if s.pins[p] == 0 {
			s.smu.Unlock()
			return fmt.Errorf("%w: %v", ErrNotPinned, obj)
		}
	}
	s.smu.Unlock()
	return s.k.Write(obj, data)
}

// --- Logging (value logging with paging-control side effects) -------------------

// PinAndBuffer pins the object and copies its existing (old) value into a
// buffer in anticipation of a modification (Table 3-1).
func (s *Server) PinAndBuffer(tid types.TransID, obj types.ObjectID) error {
	s.ensureJoined(tid)
	if err := s.PinObject(obj); err != nil {
		return err
	}
	old, err := s.k.Read(obj)
	if err != nil {
		_ = s.UnPinObject(obj)
		return err
	}
	s.smu.Lock()
	b := s.buffers[tid]
	if b == nil {
		b = make(map[types.ObjectID][]byte)
		s.buffers[tid] = b
	}
	if _, dup := b[obj]; !dup {
		b[obj] = old
	}
	s.smu.Unlock()
	return nil
}

// LogAndUnPin sends the buffered old value and the existing (new) value to
// the Recovery Manager and unpins the object (Table 3-1). Objects spanning
// multiple pages are split into per-page records, keeping each record's
// values within the one-page limit of value logging (§2.1.3). If the new
// value cannot be logged, no record could undo it, so the old value is
// written back before the object is unpinned and the error returned.
func (s *Server) LogAndUnPin(tid types.TransID, obj types.ObjectID) error {
	s.smu.Lock()
	b := s.buffers[tid]
	old, ok := b[obj]
	if ok {
		delete(b, obj)
	}
	s.smu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotBuffered, obj)
	}
	cur, err := s.k.Read(obj)
	if err == nil {
		err = s.logValue(tid, obj, old, cur)
	}
	if err != nil {
		return errors.Join(err, s.k.Write(obj, old), s.UnPinObject(obj))
	}
	return s.UnPinObject(obj)
}

// logValue writes value record(s) for obj, splitting at page boundaries.
func (s *Server) logValue(tid types.TransID, obj types.ObjectID, old, cur []byte) error {
	start := uint32(0)
	for start < obj.Length {
		off := obj.Offset + start
		pageEnd := (off/types.PageSize + 1) * types.PageSize
		n := pageEnd - off
		if start+n > obj.Length {
			n = obj.Length - start
		}
		piece := types.ObjectID{Segment: obj.Segment, Offset: off, Length: n}
		u := &wal.UpdateBody{Object: piece, Old: old[start : start+n], New: cur[start : start+n]}
		if _, err := s.rm.LogUpdate(tid, s.id, u); err != nil {
			return err
		}
		start += n
	}
	return nil
}

// --- Marked-object protocol ------------------------------------------------------

// LockAndMark locks the object and enqueues it on the transaction's
// "to be modified" queue (Table 3-1). The checkpoint protocol requires
// that data servers not wait while objects are pinned; setting all locks
// before pinning anything — which these three routines automate — meets
// that requirement (§3.1.1). The B-tree server was ported onto them with
// most of its pre-TABS code intact (§4.4).
func (s *Server) LockAndMark(tid types.TransID, obj types.ObjectID, mode lock.Mode) error {
	if err := s.LockObject(tid, obj, mode); err != nil {
		return err
	}
	s.smu.Lock()
	s.marked[tid] = append(s.marked[tid], obj)
	s.smu.Unlock()
	return nil
}

// PinAndBufferMarkedObjects pins every marked object and buffers its
// current value (Table 3-1). After it returns, the server must not wait
// until LogAndUnPinMarkedObjects.
func (s *Server) PinAndBufferMarkedObjects(tid types.TransID) error {
	s.smu.Lock()
	queue := append([]types.ObjectID(nil), s.marked[tid]...)
	s.smu.Unlock()
	for _, obj := range queue {
		if err := s.PinAndBuffer(tid, obj); err != nil {
			return err
		}
	}
	return nil
}

// LogAndUnPinMarkedObjects logs old/new values for every marked object,
// unpins them all, and deletes the queue (Table 3-1).
func (s *Server) LogAndUnPinMarkedObjects(tid types.TransID) error {
	s.smu.Lock()
	queue := s.marked[tid]
	delete(s.marked, tid)
	s.smu.Unlock()
	var firstErr error
	for _, obj := range queue {
		if err := s.LogAndUnPin(tid, obj); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// MarkedObjects returns the transaction's current to-be-modified queue.
func (s *Server) MarkedObjects(tid types.TransID) []types.ObjectID {
	s.smu.Lock()
	defer s.smu.Unlock()
	return append([]types.ObjectID(nil), s.marked[tid]...)
}

// --- Transaction management from inside a server ----------------------------------

// ExecuteTransaction runs proc within a new top-level transaction
// (Table 3-1): commit if proc returns nil, abort otherwise. The IO server
// uses this to make output permanent independently of the client
// transaction's fate (§4.3). It must be called from within an operation
// (the monitor held): proc runs as part of the calling coroutine, while
// the begin/commit/abort interactions with the Transaction Manager are
// coroutine switches.
func (s *Server) ExecuteTransaction(proc func(tid types.TransID) error) error {
	var tid types.TransID
	if err := s.await(func() error {
		var err error
		tid, err = s.tm.Begin(types.NilTransID)
		return err
	}); err != nil {
		return err
	}
	if err := proc(tid); err != nil {
		if aerr := s.await(func() error { return s.tm.Abort(tid) }); aerr != nil {
			return fmt.Errorf("srvlib: abort after %v failed: %w", err, aerr)
		}
		return err
	}
	var committed bool
	if err := s.await(func() error {
		var err error
		committed, err = s.tm.End(tid)
		return err
	}); err != nil {
		return err
	}
	if !committed {
		return fmt.Errorf("srvlib: ExecuteTransaction %v did not commit", tid)
	}
	return nil
}

// Await exposes the coroutine-switch primitive to data server code that
// must block for reasons of its own (e.g. calling a remote server).
func (s *Server) Await(f func() error) error { return s.await(f) }

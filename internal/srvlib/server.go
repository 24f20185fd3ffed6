// Package srvlib is the TABS server library (paper §3.1.1, Table 3-1): the
// toolkit with which data servers are written. It provides
// shared/exclusive (and type-specific) locking, value logging, paging
// control, the lightweight-process (coroutine) mechanism, and automatic
// participation in transaction commit, abort, checkpoint and crash
// recovery.
//
// A data server is a single-threaded monitor: the library treats each
// incoming request as a separate coroutine and performs a coroutine switch
// only when an operation waits — for a lock, for a remote call, or to
// start a transaction (§3.1.1). The weak queue server's correctness
// depends on exactly these monitor semantics (§4.2).
package srvlib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"tabs/internal/kernel"
	"tabs/internal/lock"
	"tabs/internal/recovery"
	"tabs/internal/trace"
	"tabs/internal/txn"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// Request is one operation request delivered to a data server's dispatch
// function. Matchmaker would have generated typed stubs (§2.1.1); here the
// dispatch function switches on Op and decodes Body itself.
type Request struct {
	Op   string
	TID  types.TransID
	Body []byte
}

// DispatchFunc executes one operation and returns the response body.
type DispatchFunc func(req *Request) ([]byte, error)

// OpFunc applies one logged operation's script arguments against the
// server's recoverable data; used for redo and undo in operation logging.
type OpFunc func(tid types.TransID, args []byte) error

// Errors.
var (
	ErrNotPinned   = errors.New("srvlib: object modified while not pinned")
	ErrNoSuchOp    = errors.New("srvlib: unregistered operation in log script")
	ErrMarkedPins  = errors.New("srvlib: marked objects already pinned")
	ErrServerDown  = errors.New("srvlib: server shut down")
	ErrNotBuffered = errors.New("srvlib: LogAndUnPin without PinAndBuffer")
)

// Config parameterizes a data server.
type Config struct {
	ID     types.ServerID
	Kernel *kernel.Kernel
	RM     *recovery.Manager
	TM     *txn.Manager
	// Segment is the server's recoverable segment (its permanent data
	// mapped into virtual memory, §3.2.1).
	Segment types.SegmentID
	// LockCompat installs a type-specific lock compatibility relation;
	// nil selects standard read/write locking (§2.1.3).
	LockCompat lock.Compat
	// LockTimeout bounds lock waits (deadlock resolution by time-out).
	LockTimeout time.Duration
	// Trace receives lock-acquire spans; nil disables tracing.
	Trace *trace.Tracer
}

// Server is one data server instance.
type Server struct {
	id  types.ServerID
	k   *kernel.Kernel
	rm  *recovery.Manager
	tm  *txn.Manager
	seg types.SegmentID
	tr  *trace.Tracer

	// monitor serializes coroutines: exactly one operation executes at a
	// time; blocking points release it (coroutine switch).
	monitor sync.Mutex

	locks *lock.Manager

	// smu guards the per-transaction bookkeeping below; it is distinct
	// from the monitor because the Transaction and Recovery Managers call
	// in from outside the coroutine world.
	smu sync.Mutex
	// buffers holds PinAndBuffer's saved old values per transaction.
	buffers map[types.TransID]map[types.ObjectID][]byte
	// marked holds LockAndMark's to-be-modified queues per transaction.
	marked map[types.TransID][]types.ObjectID
	// joined records transactions for which the first-operation message
	// has been sent to the Transaction Manager (§3.2.3).
	joined map[types.TransID]bool
	// byTop indexes every TID seen, by top-level transaction, so commit
	// can release a whole tree's locks.
	byTop map[types.TransID]map[types.TransID]bool
	// pins tracks the server's page pins so writes can be validated.
	pins map[types.PageID]int
	// ops is the operation-logging interpreter table.
	ops map[string]OpFunc
	// dispatch is the operation dispatcher installed by AcceptRequests;
	// Invoke runs every request through it.
	dispatch DispatchFunc

	closed bool
}

// New creates a data server (InitServer of Table 3-1).
func New(cfg Config) *Server {
	s := &Server{
		id:      cfg.ID,
		k:       cfg.Kernel,
		rm:      cfg.RM,
		tm:      cfg.TM,
		seg:     cfg.Segment,
		tr:      cfg.Trace,
		locks:   lock.NewTyped(cfg.LockCompat, cfg.LockTimeout),
		buffers: make(map[types.TransID]map[types.ObjectID][]byte),
		marked:  make(map[types.TransID][]types.ObjectID),
		joined:  make(map[types.TransID]bool),
		byTop:   make(map[types.TransID]map[types.TransID]bool),
		pins:    make(map[types.PageID]int),
		ops:     make(map[string]OpFunc),
	}
	s.locks.AttachTracer(s.tr)
	return s
}

// ID returns the server's identifier.
func (s *Server) ID() types.ServerID { return s.id }

// Segment returns the server's recoverable segment.
func (s *Server) Segment() types.SegmentID { return s.seg }

// Locks exposes the server's lock manager (tests and ablations).
func (s *Server) Locks() *lock.Manager { return s.locks }

// RecoverServer registers the server's undo/redo code with the Recovery
// Manager (Table 3-1: RecoverServer "accepts the log records that the
// Recovery Manager reads from the log" and "calls the server library's
// undo/redo code"). It must run before the node performs crash recovery.
func (s *Server) RecoverServer() {
	s.rm.RegisterUndoer(s.id, s)
}

// AcceptRequests installs fn as the server's dispatcher (Table 3-1):
// every request Invoke delivers from then on is one coroutine dispatched
// through fn. It starts no goroutine; requests run on their callers'.
func (s *Server) AcceptRequests(fn DispatchFunc) {
	s.smu.Lock()
	s.dispatch = fn
	s.smu.Unlock()
}

// Invoke runs one operation as a coroutine on the caller's goroutine: it
// enters the monitor, and blocking points inside the operation release it
// via await (§3.1.1). A panicking operation is confined to its own request
// — the caller gets an error and the server keeps serving, the way a TABS
// server survived a misbehaving operation rather than taking the node with
// it. The Data Server Call primitive is charged by the caller (core.Node).
func (s *Server) Invoke(op string, tid types.TransID, body []byte) ([]byte, error) {
	s.smu.Lock()
	fn := s.dispatch
	closed := s.closed
	s.smu.Unlock()
	if closed || fn == nil {
		return nil, ErrServerDown
	}
	s.monitor.Lock()
	defer s.monitor.Unlock()
	s.ensureJoined(tid)
	req := &Request{Op: op, TID: tid, Body: body}
	return s.dispatchSafely(fn, req)
}

// dispatchSafely converts a handler panic into an operation error.
func (s *Server) dispatchSafely(fn DispatchFunc, req *Request) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("srvlib: operation %q panicked: %v", req.Op, r)
		}
	}()
	return fn(req)
}

// await performs a coroutine switch: the monitor is released while f
// blocks, letting other operations run, and re-acquired before returning
// (§3.1.1: "a coroutine switch is performed only when an operation
// waits").
func (s *Server) await(f func() error) error {
	s.monitor.Unlock()
	defer s.monitor.Lock()
	return f()
}

// ensureJoined sends the Transaction Manager the first-operation message
// for tid, once (§3.2.3).
func (s *Server) ensureJoined(tid types.TransID) {
	if tid.IsNil() {
		return
	}
	s.smu.Lock()
	already := s.joined[tid]
	if !already {
		s.joined[tid] = true
		top := tid.TopLevel()
		set := s.byTop[top]
		if set == nil {
			set = make(map[types.TransID]bool)
			s.byTop[top] = set
		}
		set[tid] = true
	}
	s.smu.Unlock()
	if !already && s.tm != nil {
		s.tm.JoinServer(tid, s.id, s)
	}
}

// --- txn.Participant -------------------------------------------------------

// CommitTrans releases the locks and volatile state of the top-level
// transaction and every local subtransaction of it. Unlocking at commit is
// automatic (§3.1.1).
func (s *Server) CommitTrans(top types.TransID) {
	s.smu.Lock()
	tids := make([]types.TransID, 0, 4)
	for tid := range s.byTop[top] {
		tids = append(tids, tid)
	}
	delete(s.byTop, top)
	for _, tid := range tids {
		delete(s.joined, tid)
		delete(s.buffers, tid)
		delete(s.marked, tid)
	}
	s.smu.Unlock()
	for _, tid := range tids {
		s.locks.ReleaseAll(tid)
	}
}

// AbortTrans releases the locks and volatile state of exactly the given
// (sub)transaction, after the Recovery Manager has undone its effects.
func (s *Server) AbortTrans(tid types.TransID) {
	s.smu.Lock()
	delete(s.joined, tid)
	delete(s.buffers, tid)
	delete(s.marked, tid)
	if set := s.byTop[tid.TopLevel()]; set != nil {
		delete(set, tid)
		if len(set) == 0 {
			delete(s.byTop, tid.TopLevel())
		}
	}
	s.smu.Unlock()
	s.locks.ReleaseAll(tid)
}

// --- recovery.Undoer --------------------------------------------------------

// UndoUpdate installs the old value of a value-logging record.
func (s *Server) UndoUpdate(_ types.TransID, u *wal.UpdateBody) error {
	if uint32(len(u.Old)) != u.Object.Length {
		return fmt.Errorf("srvlib: undo length mismatch for %v", u.Object)
	}
	return s.k.Write(u.Object, u.Old)
}

// UndoOperation runs the operation record's undo script.
func (s *Server) UndoOperation(tid types.TransID, o *wal.OperationBody) error {
	return s.RunScript(tid, o.UndoArgs)
}

// RedoOperation runs the operation record's redo script.
func (s *Server) RedoOperation(tid types.TransID, o *wal.OperationBody) error {
	return s.RunScript(tid, o.RedoArgs)
}

// --- operation logging -------------------------------------------------------

// RegisterOp installs fn as the interpreter for op in redo/undo scripts.
// Operation logging with type-specific locking is the paper's announced
// extension path (§7); the library here supports it fully.
func (s *Server) RegisterOp(op string, fn OpFunc) {
	s.smu.Lock()
	defer s.smu.Unlock()
	s.ops[op] = fn
}

// Script builds a self-contained redo or undo script invoking op with
// args.
func Script(op string, args []byte) []byte {
	b := binary.BigEndian.AppendUint16(make([]byte, 0, 2+len(op)+len(args)), uint16(len(op)))
	b = append(b, op...)
	return append(b, args...)
}

// RunScript interprets a script against the registered operation table.
func (s *Server) RunScript(tid types.TransID, script []byte) error {
	if len(script) < 2 {
		return fmt.Errorf("%w: short script", ErrNoSuchOp)
	}
	n := int(binary.BigEndian.Uint16(script))
	if len(script) < 2+n {
		return fmt.Errorf("%w: truncated script", ErrNoSuchOp)
	}
	op := string(script[2 : 2+n])
	s.smu.Lock()
	fn := s.ops[op]
	s.smu.Unlock()
	if fn == nil {
		return fmt.Errorf("%w: %q", ErrNoSuchOp, op)
	}
	return fn(tid, script[2+n:])
}

// LogOperation performs operation logging for a change the server has
// already applied (while pinned): it writes one record whose redo and undo
// scripts can re-invoke or reverse the operation, covering all the pages
// the operation touched — the paper highlights that "operations on
// multi-page objects can be recorded in one log record" (§2.1.3).
func (s *Server) LogOperation(tid types.TransID, redoScript, undoScript []byte, objs ...types.ObjectID) error {
	seen := make(map[types.PageID]bool)
	body := &wal.OperationBody{Op: scriptOp(redoScript), RedoArgs: redoScript, UndoArgs: undoScript}
	for _, obj := range objs {
		for _, p := range obj.Pages() {
			if !seen[p] {
				seen[p] = true
				body.Pages = append(body.Pages, wal.PageSeq{Page: p})
			}
		}
	}
	_, err := s.rm.LogOperation(tid, s.id, body)
	return err
}

func scriptOp(script []byte) string {
	if len(script) < 2 {
		return "?"
	}
	n := int(binary.BigEndian.Uint16(script))
	if len(script) < 2+n {
		return "?"
	}
	return string(script[2 : 2+n])
}

// Close shuts the server down.
func (s *Server) Close() {
	s.smu.Lock()
	s.closed = true
	s.smu.Unlock()
	s.locks.Close()
}

// ensure interface satisfaction.
var (
	_ txn.Participant = (*Server)(nil)
	_ recovery.Undoer = (*Server)(nil)
)

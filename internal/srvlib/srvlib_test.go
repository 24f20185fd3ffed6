package srvlib_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tabs/internal/disk"
	"tabs/internal/kernel"
	"tabs/internal/lock"
	"tabs/internal/recovery"
	"tabs/internal/srvlib"
	"tabs/internal/txn"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// fixture assembles the components a data server needs, without a full
// node.
type fixture struct {
	k  *kernel.Kernel
	rm *recovery.Manager
	tm *txn.Manager
	s  *srvlib.Server
	// failAppend makes every log append fail while set.
	failAppend atomic.Bool
}

var errInjected = errors.New("injected")

func newFixture(t *testing.T, compat lock.Compat) *fixture {
	t.Helper()
	d := disk.New(disk.DefaultGeometry(512))
	k := kernel.New(kernel.Config{Disk: d, PoolPages: 32})
	if err := k.AddSegment(1, 128, 16); err != nil {
		t.Fatal(err)
	}
	f := &fixture{k: k}
	hook := func(point string) error {
		if point == "wal.append" && f.failAppend.Load() {
			return errInjected
		}
		return nil
	}
	lg, err := wal.Open(wal.Config{Disk: d, Base: 0, Sectors: 64, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	rm := recovery.New(recovery.Config{Log: lg, Kernel: k, CheckpointEvery: 1 << 30})
	tm := txn.New("n", rm, nil, nil)
	s := srvlib.New(srvlib.Config{
		ID: "srv", Kernel: k, RM: rm, TM: tm,
		Segment: 1, LockCompat: compat, LockTimeout: 200 * time.Millisecond,
	})
	s.RecoverServer()
	f.rm, f.tm, f.s = rm, tm, s
	return f
}

func (f *fixture) begin(t *testing.T) types.TransID {
	t.Helper()
	tid, err := f.tm.Begin(types.NilTransID)
	if err != nil {
		t.Fatal(err)
	}
	return tid
}

func TestAddressArithmetic(t *testing.T) {
	f := newFixture(t, nil)
	base, size, err := f.s.ReadPermanentData()
	if err != nil {
		t.Fatal(err)
	}
	if base != 0 || size != 16*types.PageSize {
		t.Errorf("base %d size %d", base, size)
	}
	obj := f.s.CreateObjectID(100, 8)
	if obj.Segment != 1 || obj.Offset != 100 || obj.Length != 8 {
		t.Errorf("obj %v", obj)
	}
	if va := f.s.ConvertObjectIDToVirtualAddress(obj); va != 100 {
		t.Errorf("va %d", va)
	}
}

func TestWriteRequiresPin(t *testing.T) {
	f := newFixture(t, nil)
	obj := f.s.CreateObjectID(0, 4)
	if err := f.s.Write(obj, []byte("nope")); !errors.Is(err, srvlib.ErrNotPinned) {
		t.Fatalf("unpinned write: %v", err)
	}
	if err := f.s.PinObject(obj); err != nil {
		t.Fatal(err)
	}
	if err := f.s.Write(obj, []byte("yes!")); err != nil {
		t.Fatalf("pinned write: %v", err)
	}
	if err := f.s.UnPinObject(obj); err != nil {
		t.Fatal(err)
	}
}

func TestPinBufferLogCycle(t *testing.T) {
	f := newFixture(t, nil)
	tid := f.begin(t)
	obj := f.s.CreateObjectID(0, 4)
	if err := f.s.LockObject(tid, obj, lock.ModeWrite); err != nil {
		t.Fatal(err)
	}
	if err := f.s.PinAndBuffer(tid, obj); err != nil {
		t.Fatal(err)
	}
	if err := f.s.Write(obj, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.s.LogAndUnPin(tid, obj); err != nil {
		t.Fatal(err)
	}
	if !f.rm.HasLogged(tid) {
		t.Error("update not logged")
	}
	// Locks are released automatically at commit (§3.1.1).
	if ok, err := f.tm.End(tid); err != nil || !ok {
		t.Fatalf("commit: %v", err)
	}
	if f.s.Locks().IsLocked(obj) {
		t.Error("lock survived commit")
	}
}

func TestLogAndUnPinWithoutBufferFails(t *testing.T) {
	f := newFixture(t, nil)
	tid := f.begin(t)
	obj := f.s.CreateObjectID(0, 4)
	if err := f.s.LogAndUnPin(tid, obj); !errors.Is(err, srvlib.ErrNotBuffered) {
		t.Fatalf("got %v", err)
	}
}

// TestLogAndUnPinFailureRestoresOldValue: when the update cannot be
// logged, LogAndUnPin puts the old value back and drops the pin, so an
// abort (which has no record to undo) leaves nothing of the write.
func TestLogAndUnPinFailureRestoresOldValue(t *testing.T) {
	f := newFixture(t, nil)
	tid := f.begin(t)
	obj := f.s.CreateObjectID(0, 4)
	if err := f.s.LockObject(tid, obj, lock.ModeWrite); err != nil {
		t.Fatal(err)
	}
	if err := f.s.PinAndBuffer(tid, obj); err != nil {
		t.Fatal(err)
	}
	if err := f.s.Write(obj, []byte("data")); err != nil {
		t.Fatal(err)
	}
	f.failAppend.Store(true)
	if err := f.s.LogAndUnPin(tid, obj); !errors.Is(err, errInjected) {
		t.Fatalf("LogAndUnPin with a failing log: %v", err)
	}
	f.failAppend.Store(false)
	if n := f.k.PinnedPages(); n != 0 {
		t.Errorf("%d pages still pinned after the failed LogAndUnPin", n)
	}
	if err := f.tm.Abort(tid); err != nil {
		t.Fatal(err)
	}
	got, err := f.s.Read(obj)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "\x00\x00\x00\x00" {
		t.Errorf("aborted write visible: %q", got)
	}
}

func TestMarkedObjectsProtocol(t *testing.T) {
	f := newFixture(t, nil)
	tid := f.begin(t)
	objs := []types.ObjectID{
		f.s.CreateObjectID(0, 4),
		f.s.CreateObjectID(types.PageSize, 4),
		f.s.CreateObjectID(2*types.PageSize, 4),
	}
	for _, o := range objs {
		if err := f.s.LockAndMark(tid, o, lock.ModeWrite); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(f.s.MarkedObjects(tid)); got != 3 {
		t.Fatalf("marked %d", got)
	}
	if err := f.s.PinAndBufferMarkedObjects(tid); err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		if err := f.s.Write(o, []byte{byte(i), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.s.LogAndUnPinMarkedObjects(tid); err != nil {
		t.Fatal(err)
	}
	if got := len(f.s.MarkedObjects(tid)); got != 0 {
		t.Errorf("queue not deleted: %d", got)
	}
	if f.k.PinnedPages() != 0 {
		t.Errorf("%d pages still pinned", f.k.PinnedPages())
	}
	// Abort must restore all three via the logged values.
	if err := f.tm.Abort(tid); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		got, err := f.s.Read(o)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 0 {
			t.Errorf("object %v not undone: %v", o, got)
		}
	}
}

func TestCoroutineMonitorSemantics(t *testing.T) {
	// Two requests: the first blocks on a lock; the monitor must switch
	// to the second (coroutine switch on wait), which releases the lock
	// path by completing.
	f := newFixture(t, nil)
	obj := f.s.CreateObjectID(0, 4)

	blocker := f.begin(t)
	if err := f.s.LockObject(blocker, obj, lock.ModeWrite); err != nil {
		t.Fatal(err)
	}

	var order atomic.Int32
	f.s.AcceptRequests(func(req *srvlib.Request) ([]byte, error) {
		switch req.Op {
		case "blocked":
			// Waits for the lock: a coroutine switch point.
			err := f.s.LockObject(req.TID, obj, lock.ModeRead)
			order.CompareAndSwap(1, 2)
			return nil, err
		case "fast":
			order.CompareAndSwap(0, 1)
			return nil, nil
		}
		return nil, errors.New("?")
	})

	t1, t2 := f.begin(t), f.begin(t)
	blocked := make(chan error, 1)
	go func() {
		_, err := f.s.Invoke("blocked", t1, nil)
		blocked <- err
	}()
	// Let "blocked" enter its lock wait before the second request.
	for deadline := time.Now().Add(5 * time.Second); f.s.Locks().Stats().Waits < 1; {
		if time.Now().After(deadline) {
			t.Fatal("blocked request never waited for the lock")
		}
		runtime.Gosched()
	}
	fast := make(chan error, 1)
	go func() {
		_, err := f.s.Invoke("fast", t2, nil)
		fast <- err
	}()
	if err := <-fast; err != nil {
		t.Fatal(err)
	}
	if order.Load() != 1 {
		t.Errorf("fast request did not run while blocked request waited (order=%d)", order.Load())
	}
	// Release the blocker; the waiting coroutine finishes.
	if err := f.tm.Abort(blocker); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if order.Load() != 2 {
		t.Errorf("blocked request never completed (order=%d)", order.Load())
	}
}

func TestExecuteTransaction(t *testing.T) {
	f := newFixture(t, nil)
	obj := f.s.CreateObjectID(0, 4)
	var ran atomic.Bool
	f.s.AcceptRequests(func(req *srvlib.Request) ([]byte, error) {
		// Inside an operation, write permanent data under a server-owned
		// top-level transaction (the IO server's trick, §4.3).
		err := f.s.ExecuteTransaction(func(tid types.TransID) error {
			if err := f.s.LockObject(tid, obj, lock.ModeWrite); err != nil {
				return err
			}
			if err := f.s.PinAndBuffer(tid, obj); err != nil {
				return err
			}
			if err := f.s.Write(obj, []byte("exec")); err != nil {
				return err
			}
			return f.s.LogAndUnPin(tid, obj)
		})
		ran.Store(true)
		return nil, err
	})
	tid := f.begin(t)
	done := make(chan error, 1)
	go func() {
		_, err := f.s.Invoke("go", tid, nil)
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("op error: %v", err)
	}
	if !ran.Load() {
		t.Fatal("operation did not run")
	}
	got, err := f.s.Read(obj)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "exec" {
		t.Errorf("got %q", got)
	}
}

func TestOperationScripts(t *testing.T) {
	f := newFixture(t, nil)
	var total int64
	f.s.RegisterOp("bump", func(_ types.TransID, args []byte) error {
		total += int64(binary.BigEndian.Uint64(args))
		return nil
	})
	script := srvlib.Script("bump", binary.BigEndian.AppendUint64(nil, 5))
	if err := f.s.RunScript(types.NilTransID, script); err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Errorf("total %d", total)
	}
	if err := f.s.RunScript(types.NilTransID, srvlib.Script("missing", nil)); !errors.Is(err, srvlib.ErrNoSuchOp) {
		t.Errorf("missing op: %v", err)
	}
	if err := f.s.RunScript(types.NilTransID, []byte{0}); !errors.Is(err, srvlib.ErrNoSuchOp) {
		t.Errorf("short script: %v", err)
	}
}

func TestUnPinAllObjects(t *testing.T) {
	f := newFixture(t, nil)
	for i := uint32(0); i < 3; i++ {
		if err := f.s.PinObject(f.s.CreateObjectID(srvlib.VirtualAddress(i*types.PageSize), 4)); err != nil {
			t.Fatal(err)
		}
	}
	if f.k.PinnedPages() != 3 {
		t.Fatalf("pinned %d", f.k.PinnedPages())
	}
	if err := f.s.UnPinAllObjects(); err != nil {
		t.Fatal(err)
	}
	if f.k.PinnedPages() != 0 {
		t.Errorf("pinned %d after UnPinAll", f.k.PinnedPages())
	}
}

func TestSubTransactionLockRelease(t *testing.T) {
	f := newFixture(t, nil)
	top := f.begin(t)
	sub, err := f.tm.Begin(top)
	if err != nil {
		t.Fatal(err)
	}
	obj := f.s.CreateObjectID(0, 4)
	if err := f.s.LockObject(sub, obj, lock.ModeWrite); err != nil {
		t.Fatal(err)
	}
	// Abort only the subtransaction: its lock goes, the parent lives.
	if err := f.tm.Abort(sub); err != nil {
		t.Fatal(err)
	}
	if f.s.Locks().IsLocked(obj) {
		t.Error("sub lock survived sub abort")
	}
	if ok, err := f.tm.End(top); err != nil || !ok {
		t.Fatalf("parent commit after sub abort: %v", err)
	}
}

// TestPanicConfinedToOperation: a handler panic becomes an error reply;
// the server keeps serving subsequent requests.
func TestPanicConfinedToOperation(t *testing.T) {
	f := newFixture(t, nil)
	f.s.AcceptRequests(func(req *srvlib.Request) ([]byte, error) {
		if req.Op == "explode" {
			panic("handler bug")
		}
		return []byte("fine"), nil
	})
	call := func(op string) ([]byte, error) {
		type reply struct {
			body []byte
			err  error
		}
		done := make(chan reply, 1)
		tid := f.begin(t)
		go func() {
			body, err := f.s.Invoke(op, tid, nil)
			done <- reply{body, err}
		}()
		r := <-done
		return r.body, r.err
	}
	if _, err := call("explode"); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic not surfaced: %v", err)
	}
	body, err := call("ok")
	if err != nil || string(body) != "fine" {
		t.Errorf("server dead after panic: %q, %v", body, err)
	}
}

// TestAcceptRequestsStartsNoGoroutine: installing a dispatcher starts no
// request loop; requests run on their callers' goroutines through Invoke.
func TestAcceptRequestsStartsNoGoroutine(t *testing.T) {
	f := newFixture(t, nil)
	servers := make([]*srvlib.Server, 64)
	for i := range servers {
		servers[i] = srvlib.New(srvlib.Config{
			ID: types.ServerID(fmt.Sprintf("srv%d", i)), Kernel: f.k, RM: f.rm, TM: f.tm,
			Segment: 1, LockTimeout: time.Second,
		})
	}
	before := runtime.NumGoroutine()
	for _, s := range servers {
		s.AcceptRequests(func(*srvlib.Request) ([]byte, error) { return nil, nil })
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("AcceptRequests on %d servers raised the goroutine count from %d to %d", len(servers), before, after)
	}
	for _, s := range servers {
		if _, err := s.Invoke("noop", types.NilTransID, nil); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}

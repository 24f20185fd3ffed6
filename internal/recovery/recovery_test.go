package recovery

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tabs/internal/disk"
	"tabs/internal/kernel"
	"tabs/internal/trace"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// rig is a Recovery Manager test fixture sharing one simulated disk, so a
// "crash" is simulated by building a fresh rig over the same disk.
type rig struct {
	d   *disk.Disk
	k   *kernel.Kernel
	lg  *wal.Log
	rm  *Manager
	und *kernelUndoer
}

// kernelUndoer is a minimal data-server stand-in: value undo installs old
// bytes; operations interpret "set <byte>" scripts against object 0.
type kernelUndoer struct {
	k   *kernel.Kernel
	obj types.ObjectID
}

func (u *kernelUndoer) UndoUpdate(_ types.TransID, b *wal.UpdateBody) error {
	return u.k.Write(b.Object, b.Old)
}

func (u *kernelUndoer) UndoOperation(tid types.TransID, o *wal.OperationBody) error {
	return u.k.Write(u.obj, o.UndoArgs)
}

func (u *kernelUndoer) RedoOperation(tid types.TransID, o *wal.OperationBody) error {
	return u.k.Write(u.obj, o.RedoArgs)
}

func newRig(t *testing.T, d *disk.Disk) *rig {
	t.Helper()
	if d == nil {
		d = disk.New(disk.DefaultGeometry(512))
	}
	return newRigSized(t, d, 32, 64, 16)
}

// newRigSized is newRig over d with the given buffer pool, a log of
// logSectors at the start of the disk and segment 1 of segPages right
// after a gap.
func newRigSized(t *testing.T, d *disk.Disk, poolPages int, logSectors int64, segPages uint32) *rig {
	t.Helper()
	k := kernel.New(kernel.Config{Disk: d, PoolPages: poolPages})
	if err := k.AddSegment(1, disk.Addr(2*logSectors), segPages); err != nil {
		t.Fatal(err)
	}
	lg, err := wal.Open(wal.Config{Disk: d, Base: 0, Sectors: logSectors})
	if err != nil {
		t.Fatal(err)
	}
	rm := New(Config{Log: lg, Kernel: k, CheckpointEvery: 1 << 30})
	und := &kernelUndoer{k: k, obj: types.ObjectID{Segment: 1, Offset: 0, Length: 4}}
	rm.RegisterUndoer("srv", und)
	return &rig{d: d, k: k, lg: lg, rm: rm, und: und}
}

func tid(n uint64) types.TransID {
	return types.TransID{Node: "n", Seq: n, RootNode: "n", RootSeq: n}
}

var obj = types.ObjectID{Segment: 1, Offset: 0, Length: 4}

// write performs one pinned, logged value update.
func (r *rig) write(t *testing.T, id types.TransID, val string) {
	t.Helper()
	old, err := r.k.Read(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.k.Write(obj, []byte(val)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rm.LogUpdate(id, "srv", &wal.UpdateBody{Object: obj, Old: old, New: []byte(val)}); err != nil {
		t.Fatal(err)
	}
}

// live returns the status of every transaction in the Recovery
// Manager's table.
func (r *rig) live() map[types.TransID]types.Status {
	r.rm.mu.Lock()
	defer r.rm.mu.Unlock()
	out := make(map[types.TransID]types.Status, len(r.rm.trans))
	for id, ts := range r.rm.trans {
		out[id] = ts.status
	}
	return out
}

// dirtyPages returns the size of the dirty-page table.
func (r *rig) dirtyPages() int {
	r.rm.mu.Lock()
	defer r.rm.mu.Unlock()
	return len(r.rm.dirty)
}

func (r *rig) read(t *testing.T) string {
	t.Helper()
	b, err := r.k.Read(obj)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestAbortInstallsOldValues(t *testing.T) {
	r := newRig(t, nil)
	r.write(t, tid(1), "aaaa")
	if err := r.rm.LogCommit(tid(1)); err != nil {
		t.Fatal(err)
	}
	r.write(t, tid(2), "bbbb")
	r.write(t, tid(2), "cccc")
	if err := r.rm.Abort(tid(2)); err != nil {
		t.Fatal(err)
	}
	if got := r.read(t); got != "aaaa" {
		t.Errorf("after abort: %q", got)
	}
}

func TestAbortIsRepeatableViaCLRs(t *testing.T) {
	r := newRig(t, nil)
	r.write(t, tid(1), "aaaa")
	if err := r.rm.LogCommit(tid(1)); err != nil {
		t.Fatal(err)
	}
	r.write(t, tid(2), "bbbb")
	if err := r.rm.Abort(tid(2)); err != nil {
		t.Fatal(err)
	}
	// A second abort of the same chain must be a no-op: everything is
	// compensated.
	if err := r.rm.Abort(tid(2)); err != nil {
		t.Fatal(err)
	}
	if got := r.read(t); got != "aaaa" {
		t.Errorf("after double abort: %q", got)
	}
}

func TestRestartValueOnlySinglePass(t *testing.T) {
	r := newRig(t, nil)
	r.write(t, tid(1), "keep")
	if err := r.rm.LogCommit(tid(1)); err != nil {
		t.Fatal(err)
	}
	r.write(t, tid(2), "lost")
	// Steal the dirty page so the loser's effect is on disk, then crash.
	if err := r.k.FlushAll(); err != nil {
		t.Fatal(err)
	}
	r.k.Crash()
	r.rm.Crash()

	r2 := newRig(t, r.d)
	report, err := r2.rm.Restart(nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Passes != 1 {
		t.Errorf("pure value log should use 1 pass, used %d", report.Passes)
	}
	if got := r2.read(t); got != "keep" {
		t.Errorf("after restart: %q", got)
	}
}

func TestRestartRedoesLostCommitted(t *testing.T) {
	r := newRig(t, nil)
	r.write(t, tid(1), "good")
	if err := r.rm.LogCommit(tid(1)); err != nil {
		t.Fatal(err)
	}
	// No flush: the committed effect exists only in the log.
	r.k.Crash()
	r.rm.Crash()

	r2 := newRig(t, r.d)
	if _, err := r2.rm.Restart(nil); err != nil {
		t.Fatal(err)
	}
	if got := r2.read(t); got != "good" {
		t.Errorf("committed effect not redone: %q", got)
	}
}

func TestRestartResolvesPrepared(t *testing.T) {
	r := newRig(t, nil)
	r.write(t, tid(1), "wxyz")
	if err := r.rm.LogPrepare(tid(1), &wal.PrepareBody{Parent: "coord"}); err != nil {
		t.Fatal(err)
	}
	r.k.Crash()
	r.rm.Crash()

	// Coordinator says committed.
	r2 := newRig(t, r.d)
	src := &fakeStatusSource{answer: types.StatusCommitted}
	report, err := r2.rm.Restart(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.InDoubt) != 1 {
		t.Errorf("in-doubt list %v", report.InDoubt)
	}
	if src.asked != 1 {
		t.Errorf("coordinator asked %d times", src.asked)
	}
	if got := r2.read(t); got != "wxyz" {
		t.Errorf("prepared-then-committed effect lost: %q", got)
	}
}

func TestRestartAbortsPreparedWhenCoordinatorSaysNo(t *testing.T) {
	r := newRig(t, nil)
	r.write(t, tid(1), "wxyz")
	if err := r.rm.LogPrepare(tid(1), &wal.PrepareBody{Parent: "coord"}); err != nil {
		t.Fatal(err)
	}
	if err := r.k.FlushAll(); err != nil { // effect reaches disk
		t.Fatal(err)
	}
	r.k.Crash()
	r.rm.Crash()

	r2 := newRig(t, r.d)
	src := &fakeStatusSource{answer: types.StatusAborted}
	if _, err := r2.rm.Restart(src); err != nil {
		t.Fatal(err)
	}
	if got := r2.read(t); got == "wxyz" {
		t.Errorf("aborted prepared effect survived: %q", got)
	}
}

type fakeStatusSource struct {
	answer types.Status
	asked  int
}

func (f *fakeStatusSource) ResolveStatus(types.TransID, *wal.PrepareBody) types.Status {
	f.asked++
	return f.answer
}

func (f *fakeStatusSource) RestoreTransRecord(*wal.Record) {}

func TestCheckpointBoundsAnalysis(t *testing.T) {
	r := newRig(t, nil)
	for i := uint64(1); i <= 10; i++ {
		r.write(t, tid(i), "vvvv")
		if err := r.rm.LogCommit(tid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.k.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := r.rm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One more transaction after the checkpoint.
	r.write(t, tid(11), "tail")
	if err := r.rm.LogCommit(tid(11)); err != nil {
		t.Fatal(err)
	}
	r.k.Crash()
	r.rm.Crash()

	r2 := newRig(t, r.d)
	report, err := r2.rm.Restart(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The analysis scan must start at the checkpoint: far fewer records
	// than the 21+ in the whole log... the single backward pass still
	// walks the retained log, so assert on the analysis share indirectly:
	// redo applied the tail transaction.
	if got := r2.read(t); got != "tail" {
		t.Errorf("after restart: %q", got)
	}
	_ = report
}

func TestReclaimAdvancesLowWaterMark(t *testing.T) {
	r := newRig(t, nil)
	for i := uint64(1); i <= 20; i++ {
		r.write(t, tid(i), "vvvv")
		if err := r.rm.LogCommit(tid(i)); err != nil {
			t.Fatal(err)
		}
	}
	lowBefore := r.lg.LowLSN()
	if err := r.rm.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if r.lg.LowLSN() <= lowBefore {
		t.Errorf("reclaim did not advance the low-water mark: %d -> %d", lowBefore, r.lg.LowLSN())
	}
	// Dirty pages must be gone (forced during reclamation).
	if n := r.dirtyPages(); n != 0 {
		t.Errorf("%d dirty pages after reclamation", n)
	}
}

func TestWriteAheadRuleOnSteal(t *testing.T) {
	r := newRig(t, nil)
	r.write(t, tid(1), "wal!")
	durableBefore := r.lg.DurableLSN()
	// Force the page out through the pager protocol.
	if err := r.k.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if r.lg.DurableLSN() <= durableBefore {
		t.Error("page steal did not force the log first (write-ahead violated)")
	}
	// The page header must carry the newest record LSN.
	seq, err := r.k.ReadPageSeq(types.PageID{Segment: 1, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Error("stolen page header has no sequence number")
	}
}

func TestOperationLogging3PassAndPageSeqGuard(t *testing.T) {
	r := newRig(t, nil)
	// Operation-logged change: script bytes are the value to install.
	if err := r.k.Write(obj, []byte("op01")); err != nil {
		t.Fatal(err)
	}
	body := &wal.OperationBody{
		Op:       "set",
		RedoArgs: []byte("op01"),
		UndoArgs: []byte{0, 0, 0, 0},
		Pages:    []wal.PageSeq{{Page: types.PageID{Segment: 1, Page: 0}}},
	}
	if _, err := r.rm.LogOperation(tid(1), "srv", body); err != nil {
		t.Fatal(err)
	}
	if err := r.rm.LogCommit(tid(1)); err != nil {
		t.Fatal(err)
	}
	r.k.Crash()
	r.rm.Crash()

	r2 := newRig(t, r.d)
	report, err := r2.rm.Restart(nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Passes != 3 {
		t.Errorf("operation log should take 3 passes, took %d", report.Passes)
	}
	if got := r2.read(t); got != "op01" {
		t.Errorf("op redo missing: %q", got)
	}
	// Flush so the header records the redo; another restart must not
	// re-apply (page-sequence guard).
	if err := r2.k.FlushAll(); err != nil {
		t.Fatal(err)
	}
	r2.k.Crash()
	r2.rm.Crash()
	r3 := newRig(t, r.d)
	report3, err := r3.rm.Restart(nil)
	if err != nil {
		t.Fatal(err)
	}
	if report3.Redone != 0 {
		t.Errorf("page-sequence guard failed: %d redos on an up-to-date page", report3.Redone)
	}
}

func TestHasLogged(t *testing.T) {
	r := newRig(t, nil)
	if r.rm.HasLogged(tid(1)) {
		t.Error("fresh transaction has logged?")
	}
	r.write(t, tid(1), "mmmm")
	if !r.rm.HasLogged(tid(1)) {
		t.Error("written transaction has not logged?")
	}
}

func TestValueRecordRejectsOversize(t *testing.T) {
	r := newRig(t, nil)
	big := bytes.Repeat([]byte("x"), types.PageSize+1)
	_, err := r.rm.LogUpdate(tid(1), "srv", &wal.UpdateBody{Object: obj, Old: big, New: big})
	if err == nil {
		t.Error("value record larger than a page accepted (§2.1.3 limit)")
	}
}

// TestValueRecoveryOverlappingObjects pins the ordering rule the single
// backward pass must follow when logged objects overlap: a shard
// migration logs whole-page images while client writes log single cells
// within those pages. The newest record per object decides the value, but
// installation must go oldest-first — applying the (older, larger) page
// image after the (newer, smaller) cell write would wipe a committed
// update, which is exactly the lost-write the migrate torture caught.
func TestValueRecoveryOverlappingObjects(t *testing.T) {
	r := newRig(t, nil)
	page := types.ObjectID{Segment: 1, Offset: 0, Length: types.PageSize}

	// Txn 1: a committed whole-page image (a migration import).
	img := bytes.Repeat([]byte{0xAA}, types.PageSize)
	if err := r.k.Write(page, img); err != nil {
		t.Fatal(err)
	}
	if _, err := r.rm.LogUpdate(tid(1), "srv", &wal.UpdateBody{
		Object: page, Old: make([]byte, types.PageSize), New: img,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.rm.LogCommit(tid(1)); err != nil {
		t.Fatal(err)
	}

	// Txn 2: a committed cell write inside that page, logged later.
	r.write(t, tid(2), "cell")
	if err := r.rm.LogCommit(tid(2)); err != nil {
		t.Fatal(err)
	}

	r.k.Crash()
	r.rm.Crash()
	r2 := newRig(t, r.d)
	report, err := r2.rm.Restart(nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Passes != 1 {
		t.Fatalf("value-only log took %d passes, want 1", report.Passes)
	}
	if got := r2.read(t); got != "cell" {
		t.Errorf("cell = %q after recovery, want %q (page image overwrote a newer committed cell write)", got, "cell")
	}
	rest, err := r2.k.Read(types.ObjectID{Segment: 1, Offset: 8, Length: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, []byte{0xAA, 0xAA, 0xAA, 0xAA}) {
		t.Errorf("bytes outside the cell = %x, want the page image", rest)
	}
}

// stallingACP is an acceptor-state source whose first snapshot blocks
// until released, holding its checkpoint between taking the redo LSN and
// appending the record.
type stallingACP struct {
	called           atomic.Bool
	stalled, release chan struct{}
}

func (s *stallingACP) CheckpointState(int) ([]byte, [][]byte) {
	if s.called.CompareAndSwap(false, true) {
		close(s.stalled)
		<-s.release
	}
	return nil, nil
}

func (s *stallingACP) RestoreState([]byte)  {}
func (s *stallingACP) RestoreRecord([]byte) {}

// TestCheckpointsAnchorInRedoOrder: a reclamation frees the log up to the
// redo LSN of its own checkpoint, so a checkpoint that took an older redo
// LSN must not anchor after it. Here the older checkpoint stalls while its
// transaction commits and a reclamation starts; checkpoints are
// serialized, so the reclamation waits, and restart still finds the
// anchor's redo LSN in the retained log.
func TestCheckpointsAnchorInRedoOrder(t *testing.T) {
	r := newRig(t, nil)
	acp := &stallingACP{stalled: make(chan struct{}), release: make(chan struct{})}
	r.rm.SetACPSource(acp)
	r.write(t, tid(1), "aaaa")
	older := make(chan error, 1)
	go func() { older <- r.rm.Checkpoint() }()
	<-acp.stalled // its redo LSN is tid(1)'s first record
	if err := r.rm.LogCommit(tid(1)); err != nil {
		t.Fatal(err)
	}
	reclaimed := make(chan error, 1)
	go func() { reclaimed <- r.rm.Reclaim() }()
	select {
	case err := <-reclaimed: // unserialized: reclaimed past the stalled redo LSN
		reclaimed <- err
	case <-time.After(50 * time.Millisecond): // waiting behind the stalled checkpoint
	}
	close(acp.release)
	for _, done := range []chan error{older, reclaimed} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	r.k.Crash()
	r.rm.Crash()
	if _, err := newRig(t, r.d).rm.Restart(nil); err != nil {
		t.Fatalf("restart: %v", err)
	}
}

// TestNearlyFullReclaimIsSingleFlight pins the stampede fix: while an old
// active transaction keeps the log nearly full, every finishing
// transaction sees NearlyFull, and before the fix each one ran its own
// reclamation (page flush, forced checkpoint, anchor write). N concurrent
// commits must now share about one — and once the old transaction is
// gone, the next finish must still free the space.
func TestNearlyFullReclaimIsSingleFlight(t *testing.T) {
	d := disk.New(disk.DefaultGeometry(1024))
	k := kernel.New(kernel.Config{Disk: d, PoolPages: 32})
	if err := k.AddSegment(1, 512, 16); err != nil {
		t.Fatal(err)
	}
	tr := trace.New("n", 16)
	lg, err := wal.Open(wal.Config{Disk: d, Base: 0, Sectors: 256, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	rm := New(Config{Log: lg, Kernel: k, CheckpointEvery: 1 << 30, Trace: tr})
	r := &rig{d: d, k: k, lg: lg, rm: rm}
	reclaims := func() float64 { return tr.MetricsSnapshot()["recovery.reclaim.count"].Value }

	// tid(1) stays active: its first record bounds the low-water mark, so
	// no reclamation can take the log out of the nearly-full band.
	r.write(t, tid(1), "pin!")
	next := uint64(2)
	for ; !lg.NearlyFull(); next++ {
		r.write(t, tid(next), "fill")
		if err := rm.LogCommit(tid(next)); err != nil {
			t.Fatal(err)
		}
	}

	const n = 32
	for i := uint64(0); i < n; i++ {
		r.write(t, tid(next+i), "race")
	}
	// Real time per disk access, so reclamations are long enough to overlap.
	d.SetIOHook(func(float64, bool) { time.Sleep(200 * time.Microsecond) })
	before := reclaims()
	var wg sync.WaitGroup
	for i := uint64(0); i < n; i++ {
		wg.Add(1)
		go func(id types.TransID) {
			defer wg.Done()
			if err := rm.LogCommit(id); err != nil {
				t.Error(err)
			}
		}(tid(next + i))
	}
	wg.Wait()
	d.SetIOHook(nil)
	if got := reclaims() - before; got < 1 || got > 4 {
		t.Errorf("%d concurrent commits on a nearly-full log ran %v reclamations, want 1..4", n, got)
	}

	if err := rm.LogCommit(tid(1)); err != nil {
		t.Fatal(err)
	}
	if lg.NearlyFull() {
		t.Errorf("log still nearly full (%d bytes left) after the pinning transaction finished", lg.SpaceLeft())
	}
}

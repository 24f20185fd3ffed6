package txn_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tabs/internal/comm"
	"tabs/internal/fault"
	"tabs/internal/txn"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// fakeRM records the Recovery Manager calls the Transaction Manager makes.
type fakeRM struct {
	mu       sync.Mutex
	logged   map[types.TransID]bool
	commits  []types.TransID
	prepares []types.TransID
	aborts   []types.TransID
	failNext error
	// changed gets a (non-blocking) token whenever a record is written,
	// so tests can wait on RM activity instead of sleeping.
	changed chan struct{}
}

func newFakeRM() *fakeRM {
	return &fakeRM{logged: make(map[types.TransID]bool), changed: make(chan struct{}, 1)}
}

// notifyLocked signals waiters that the record lists changed.
func (f *fakeRM) notifyLocked() {
	select {
	case f.changed <- struct{}{}:
	default:
	}
}

// waitForCounts blocks until cond holds for the RM's record counts,
// failing the test after a deadline.
func (f *fakeRM) waitForCounts(t *testing.T, cond func(commits, prepares, aborts int) bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		if cond(f.counts()) {
			return
		}
		select {
		case <-f.changed:
		case <-deadline:
			c, p, a := f.counts()
			t.Fatalf("timed out waiting on RM records: commits=%d prepares=%d aborts=%d", c, p, a)
		}
	}
}

func (f *fakeRM) markLogged(tid types.TransID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.logged[tid] = true
}

func (f *fakeRM) LogCommit(tid types.TransID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNext != nil {
		err := f.failNext
		f.failNext = nil
		return err
	}
	f.commits = append(f.commits, tid)
	f.notifyLocked()
	return nil
}

func (f *fakeRM) LogPrepare(tid types.TransID, _ *wal.PrepareBody) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prepares = append(f.prepares, tid)
	f.notifyLocked()
	return nil
}

func (f *fakeRM) Abort(tid types.TransID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborts = append(f.aborts, tid)
	f.notifyLocked()
	return nil
}

func (f *fakeRM) HasLogged(tid types.TransID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.logged[tid]
}

func (f *fakeRM) counts() (commits, prepares, aborts int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.commits), len(f.prepares), len(f.aborts)
}

// fakeParticipant records lock-release notifications.
type fakeParticipant struct {
	mu      sync.Mutex
	commits []types.TransID
	aborts  []types.TransID
}

func (p *fakeParticipant) CommitTrans(top types.TransID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.commits = append(p.commits, top)
}

func (p *fakeParticipant) AbortTrans(tid types.TransID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.aborts = append(p.aborts, tid)
}

func soloTM() (*txn.Manager, *fakeRM) {
	rm := newFakeRM()
	return txn.New("solo", rm, nil, nil), rm
}

func TestBeginTopLevel(t *testing.T) {
	tm, _ := soloTM()
	tid, err := tm.Begin(types.NilTransID)
	if err != nil {
		t.Fatal(err)
	}
	if !tid.IsTopLevel() || tid.Node != "solo" {
		t.Errorf("tid %v", tid)
	}
	if tm.Status(tid) != types.StatusActive {
		t.Errorf("status %v", tm.Status(tid))
	}
}

func TestSubtransactionHierarchy(t *testing.T) {
	tm, _ := soloTM()
	top, _ := tm.Begin(types.NilTransID)
	sub, err := tm.Begin(top)
	if err != nil {
		t.Fatal(err)
	}
	if sub.IsTopLevel() || sub.TopLevel() != top {
		t.Errorf("sub %v of %v", sub, top)
	}
	subsub, err := tm.Begin(sub)
	if err != nil {
		t.Fatal(err)
	}
	if subsub.TopLevel() != top {
		t.Errorf("subsub root %v", subsub.TopLevel())
	}
}

func TestSubCommitIsProvisional(t *testing.T) {
	tm, rm := soloTM()
	top, _ := tm.Begin(types.NilTransID)
	sub, _ := tm.Begin(top)
	ok, err := tm.End(sub)
	if err != nil || !ok {
		t.Fatalf("sub end: %v", err)
	}
	// No commit record yet: subtransactions commit with the root
	// (§2.1.3).
	if c, _, _ := rm.counts(); c != 0 {
		t.Errorf("sub end wrote %d commit records", c)
	}
	// The sub cannot be used as a parent anymore.
	if _, err := tm.Begin(sub); err == nil {
		t.Error("Begin under a committed sub succeeded")
	}
}

func TestSubAbortIndependent(t *testing.T) {
	tm, rm := soloTM()
	p := &fakeParticipant{}
	top, _ := tm.Begin(types.NilTransID)
	sub, _ := tm.Begin(top)
	tm.JoinServer(sub, "srv", p)
	rm.markLogged(sub)

	if err := tm.Abort(sub); err != nil {
		t.Fatal(err)
	}
	if _, _, aborts := rm.counts(); aborts != 1 {
		t.Errorf("%d RM aborts, want 1 (only the sub)", aborts)
	}
	if tm.Status(top) != types.StatusActive {
		t.Error("parent died with the sub (§2.1.3 violated)")
	}
	// Parent still commits.
	rm.markLogged(top)
	if ok, err := tm.End(top); err != nil || !ok {
		t.Fatalf("parent commit: %v", err)
	}
}

func TestSubAbortCascadesToDescendants(t *testing.T) {
	tm, rm := soloTM()
	top, _ := tm.Begin(types.NilTransID)
	sub, _ := tm.Begin(top)
	subsub, _ := tm.Begin(sub)
	_ = subsub
	if err := tm.Abort(sub); err != nil {
		t.Fatal(err)
	}
	if _, _, aborts := rm.counts(); aborts != 2 {
		t.Errorf("%d RM aborts, want 2 (sub and its child)", aborts)
	}
}

func TestTopAbortTakesSubs(t *testing.T) {
	tm, rm := soloTM()
	top, _ := tm.Begin(types.NilTransID)
	sub1, _ := tm.Begin(top)
	sub2, _ := tm.Begin(top)
	_, _ = sub1, sub2
	if err := tm.Abort(top); err != nil {
		t.Fatal(err)
	}
	if _, _, aborts := rm.counts(); aborts != 3 {
		t.Errorf("%d RM aborts, want 3 (top + two subs)", aborts)
	}
	if tm.Status(top) != types.StatusAborted {
		t.Errorf("status %v", tm.Status(top))
	}
}

func TestReadOnlyCommitNeedsNoLog(t *testing.T) {
	tm, rm := soloTM()
	p := &fakeParticipant{}
	tid, _ := tm.Begin(types.NilTransID)
	tm.JoinServer(tid, "srv", p)
	ok, err := tm.End(tid)
	if err != nil || !ok {
		t.Fatalf("commit: %v", err)
	}
	if c, _, _ := rm.counts(); c != 0 {
		t.Errorf("read-only commit wrote %d records (Table 5-3 shows none)", c)
	}
	if len(p.commits) != 1 {
		t.Error("participant never told to release locks")
	}
}

func TestWriteCommitForcesLog(t *testing.T) {
	tm, rm := soloTM()
	tid, _ := tm.Begin(types.NilTransID)
	rm.markLogged(tid)
	if ok, err := tm.End(tid); err != nil || !ok {
		t.Fatalf("commit: %v", err)
	}
	if c, _, _ := rm.counts(); c != 1 {
		t.Errorf("%d commit records", c)
	}
}

func TestCommitFailureAborts(t *testing.T) {
	tm, rm := soloTM()
	tid, _ := tm.Begin(types.NilTransID)
	rm.markLogged(tid)
	rm.mu.Lock()
	rm.failNext = errors.New("log full")
	rm.mu.Unlock()
	ok, err := tm.End(tid)
	if ok {
		t.Error("commit reported success despite force failure")
	}
	_ = err
	if tm.Status(tid) != types.StatusAborted {
		t.Errorf("status %v after failed commit", tm.Status(tid))
	}
}

func TestEndUnknownTransaction(t *testing.T) {
	tm, _ := soloTM()
	_, err := tm.End(types.TransID{Node: "solo", Seq: 99, RootNode: "solo", RootSeq: 99})
	if !errors.Is(err, txn.ErrUnknownTrans) {
		t.Errorf("got %v", err)
	}
}

func TestIsAborted(t *testing.T) {
	tm, _ := soloTM()
	top, _ := tm.Begin(types.NilTransID)
	sub, _ := tm.Begin(top)
	if tm.IsAborted(sub) {
		t.Error("live sub reported aborted")
	}
	if err := tm.Abort(top); err != nil {
		t.Fatal(err)
	}
	if !tm.IsAborted(top) {
		t.Error("aborted top not reported")
	}
}

// --- distributed: two TMs over a memory network with fake RMs -------------

type distRig struct {
	net *comm.MemNetwork
	tmA *txn.Manager
	tmB *txn.Manager
	rmA *fakeRM
	rmB *fakeRM
	cmA *comm.Manager
	cmB *comm.Manager
}

func newDistRig(t *testing.T) *distRig {
	t.Helper()
	r := &distRig{net: comm.NewMemNetwork()}
	r.cmA = comm.New("A", r.net.Endpoint("A"), nil)
	r.cmB = comm.New("B", r.net.Endpoint("B"), nil)
	r.rmA, r.rmB = newFakeRM(), newFakeRM()
	r.tmA = txn.New("A", r.rmA, r.cmA, nil)
	r.tmB = txn.New("B", r.rmB, r.cmB, nil)
	r.cmA.SetTransactionNoter(r.tmA)
	r.cmB.SetTransactionNoter(r.tmB)
	r.tmA.Configure(200*time.Millisecond, 0, 0)
	r.tmB.Configure(200*time.Millisecond, 0, 0)
	// A "remote operation" service that registers activity with B's TM.
	r.cmB.RegisterService("op", func(_ types.NodeID, tid types.TransID, _ []byte) ([]byte, error) {
		r.tmB.JoinServer(tid, "srvB", &fakeParticipant{})
		return nil, nil
	})
	return r
}

func TestDistributedCommitTwoNodes(t *testing.T) {
	r := newDistRig(t)
	tid, err := r.tmA.Begin(types.NilTransID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.cmA.Call("B", "op", tid, nil); err != nil {
		t.Fatal(err)
	}
	r.rmA.markLogged(tid)
	r.rmB.markLogged(tid)
	ok, err := r.tmA.End(tid)
	if err != nil || !ok {
		t.Fatalf("distributed commit: ok=%v err=%v", ok, err)
	}
	// Coordinator wrote a commit; participant prepared then committed.
	if c, _, _ := r.rmA.counts(); c != 1 {
		t.Errorf("coordinator commit records: %d", c)
	}
	r.rmB.waitForCounts(t, func(c, p, _ int) bool { return c == 1 && p == 1 })
}

func TestDistributedReadOnlyParticipantSkipsPhase2(t *testing.T) {
	r := newDistRig(t)
	tid, _ := r.tmA.Begin(types.NilTransID)
	if _, err := r.cmA.Call("B", "op", tid, nil); err != nil {
		t.Fatal(err)
	}
	// Only the coordinator wrote.
	r.rmA.markLogged(tid)
	ok, err := r.tmA.End(tid)
	if err != nil || !ok {
		t.Fatalf("commit: %v", err)
	}
	// A read-only participant must never see phase 2: fail the moment B's
	// RM writes any record, and declare success after a quiet window.
	select {
	case <-r.rmB.changed:
		c, p, a := r.rmB.counts()
		t.Errorf("read-only participant logged: commits=%d prepares=%d aborts=%d", c, p, a)
	case <-time.After(150 * time.Millisecond):
	}
}

func TestDistributedAbortPropagates(t *testing.T) {
	r := newDistRig(t)
	tid, _ := r.tmA.Begin(types.NilTransID)
	if _, err := r.cmA.Call("B", "op", tid, nil); err != nil {
		t.Fatal(err)
	}
	r.rmB.markLogged(tid)
	if err := r.tmA.Abort(tid); err != nil {
		t.Fatal(err)
	}
	r.rmB.waitForCounts(t, func(_, _, a int) bool { return a >= 1 })
	if r.tmA.Status(tid) != types.StatusAborted {
		t.Errorf("coordinator status %v", r.tmA.Status(tid))
	}
}

func TestCommitSurvivesDatagramLoss(t *testing.T) {
	// Wrap A's transport to drop a third of datagrams: the retry logic
	// must still drive 2PC to completion.
	net := comm.NewMemNetwork()
	inj := fault.New(7, fault.Profile{Name: "datagram-loss", Rules: map[string]fault.Rule{
		"comm.datagram.drop": {Prob: 0.33},
		"comm.datagram.dup":  {Prob: 0.1},
	}})
	inj.Enable()
	cmA := comm.New("A", inj.WrapTransport("A", net.Endpoint("A")), nil)
	cmB := comm.New("B", net.Endpoint("B"), nil)
	rmA, rmB := newFakeRM(), newFakeRM()
	tmA := txn.New("A", rmA, cmA, nil)
	tmB := txn.New("B", rmB, cmB, nil)
	cmA.SetTransactionNoter(tmA)
	cmB.SetTransactionNoter(tmB)
	tmA.Configure(100*time.Millisecond, 10, 0)
	tmB.Configure(100*time.Millisecond, 10, 0)
	cmB.RegisterService("op", func(_ types.NodeID, tid types.TransID, _ []byte) ([]byte, error) {
		tmB.JoinServer(tid, "srvB", &fakeParticipant{})
		return nil, nil
	})

	for i := 0; i < 5; i++ {
		tid, _ := tmA.Begin(types.NilTransID)
		if _, err := cmA.Call("B", "op", tid, nil); err != nil {
			t.Fatal(err)
		}
		rmA.markLogged(tid)
		rmB.markLogged(tid)
		ok, err := tmA.End(tid)
		if err != nil || !ok {
			t.Fatalf("iteration %d: commit under loss failed: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestStatusQueryPresumedAbort(t *testing.T) {
	r := newDistRig(t)
	// Ask A about a transaction it has never heard of: presumed abort.
	ghost := types.TransID{Node: "A", Seq: 12345, RootNode: "A", RootSeq: 12345}
	st := r.tmB.ResolveStatus(ghost, &wal.PrepareBody{Parent: "A"})
	if st != types.StatusAborted {
		t.Errorf("unknown transaction resolved as %v, want aborted (presumed abort)", st)
	}
}

func TestRestoreTransRecordRebuildsOutcomes(t *testing.T) {
	tm, _ := soloTM()
	tid := types.TransID{Node: "solo", Seq: 5, RootNode: "solo", RootSeq: 5}
	tm.RestoreTransRecord(&wal.Record{TID: tid, Type: wal.RecCommit})
	if tm.Status(tid) != types.StatusCommitted {
		t.Errorf("restored status %v", tm.Status(tid))
	}
}

package txn

import (
	"errors"
	"testing"

	"tabs/internal/types"
	"tabs/internal/wal"
)

// rmStub is a minimal in-package RecoveryManager for white-box tests.
type rmStub struct {
	commits, aborts int
	logged          map[types.TransID]bool
}

func (r *rmStub) LogCommit(types.TransID) error                    { r.commits++; return nil }
func (r *rmStub) LogPrepare(types.TransID, *wal.PrepareBody) error { return nil }
func (r *rmStub) Abort(types.TransID) error                        { r.aborts++; return nil }
func (r *rmStub) HasLogged(tid types.TransID) bool                 { return r.logged[tid] }

// TestAbortTreeRefusesCommittedTransaction pins the guard against the
// dueling-resolver race: two resolvers (the orphan sweeper and the
// one-shot resolveWhenStuck goroutine) can work the same prepared
// in-doubt transaction concurrently. The first decides Commit, applies
// it, and — with every participant acked — tells the acceptors to
// forget; the second's recovery ballot then runs against blank acceptors
// and concludes the Aborted sentinel. When that stale verdict reaches
// abortTree the transaction is already committed; honoring it used to
// flip the recorded outcome to Aborted while the committed effects stood
// (the undo chain closes at the commit record), breaking atomicity.
func TestAbortTreeRefusesCommittedTransaction(t *testing.T) {
	rm := &rmStub{logged: map[types.TransID]bool{}}
	m := New("solo", rm, nil, nil)
	top, err := m.Begin(types.NilTransID)
	if err != nil {
		t.Fatal(err)
	}
	rm.logged[top] = true

	// The racing resolver grabbed its localTrans pointer before commit.
	m.mu.Lock()
	lt := m.trans[top]
	m.mu.Unlock()
	if lt == nil {
		t.Fatal("no localTrans after Begin")
	}

	if ok, err := m.End(top); err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}
	if st := m.Status(top); st != types.StatusCommitted {
		t.Fatalf("status after commit: %v", st)
	}

	// Now the stale Aborted verdict lands, exactly as resolveWhenStuck
	// would deliver it.
	m.mu.Lock()
	lt.resolvedAbort = true
	m.mu.Unlock()
	if err := m.abortTree(lt); err != nil {
		t.Fatalf("abortTree on committed txn errored: %v", err)
	}

	if st := m.Status(top); st != types.StatusCommitted {
		t.Fatalf("stale abort flipped a committed transaction to %v", st)
	}
	if rm.aborts != 0 {
		t.Fatalf("stale abort ran %d undo passes against a committed transaction", rm.aborts)
	}
}

// TestAbortTreeStillAbortsPrepared makes sure the committed-state guard
// did not widen: an authoritative abort of a merely prepared transaction
// must still tear it down.
func TestAbortTreeStillAbortsPrepared(t *testing.T) {
	rm := &rmStub{logged: map[types.TransID]bool{}}
	m := New("solo", rm, nil, nil)
	top, err := m.Begin(types.NilTransID)
	if err != nil {
		t.Fatal(err)
	}
	rm.logged[top] = true
	m.mu.Lock()
	lt := m.trans[top]
	lt.state = stPrepared
	lt.prep = &wal.PrepareBody{Acceptors: []types.NodeID{"a", "b", "c"}}
	m.mu.Unlock()

	// Without an authoritative outcome the in-doubt guard refuses.
	if err := m.abortTree(lt); !errors.Is(err, ErrInDoubt) {
		t.Fatalf("presumed abort of replicated-prepared txn: %v", err)
	}
	m.mu.Lock()
	lt.resolvedAbort = true
	m.mu.Unlock()
	if err := m.abortTree(lt); err != nil {
		t.Fatalf("authoritative abort failed: %v", err)
	}
	if st := m.Status(top); st != types.StatusAborted {
		t.Fatalf("status after authoritative abort: %v", st)
	}
	if rm.aborts == 0 {
		t.Fatal("authoritative abort never ran undo")
	}
}

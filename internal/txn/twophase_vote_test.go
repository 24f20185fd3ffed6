package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tabs/internal/types"
	"tabs/internal/wal"
)

// fakeRM counts Recovery Manager calls.
type fakeRM struct {
	mu         sync.Mutex
	logCommits int
	logPrepare int
	aborts     int
	failAbort  error // returned by Abort until cleared
}

func (r *fakeRM) LogCommit(types.TransID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.logCommits++
	return nil
}
func (r *fakeRM) LogPrepare(types.TransID, *wal.PrepareBody) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.logPrepare++
	return nil
}
func (r *fakeRM) Abort(types.TransID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aborts++
	return r.failAbort
}
func (r *fakeRM) HasLogged(types.TransID) bool { return true }

func (r *fakeRM) counts() (commits, aborts int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.logCommits, r.aborts
}

// fakeCM is a scripted Communication Manager: SendDatagram invokes the
// script synchronously, which typically feeds replies straight back into
// the manager's handleDatagram — a zero-latency network whose behavior
// (duplicate votes, lost acks, silence) each test controls exactly.
type fakeCM struct {
	node     types.NodeID
	children []types.NodeID
	script   func(peer types.NodeID, tid types.TransID, kind uint8)

	mu   sync.Mutex
	sent map[types.NodeID]map[uint8]int
}

func newFakeCM(node types.NodeID, children ...types.NodeID) *fakeCM {
	return &fakeCM{node: node, children: children, sent: make(map[types.NodeID]map[uint8]int)}
}

func (f *fakeCM) Node() types.NodeID { return f.node }
func (f *fakeCM) Tree(types.TransID) (types.NodeID, bool, []types.NodeID) {
	return "", false, f.children
}
func (f *fakeCM) ForgetTree(types.TransID) {}
func (f *fakeCM) RegisterService(string, func(types.NodeID, types.TransID, []byte) ([]byte, error)) {
}
func (f *fakeCM) SendDatagram(peer types.NodeID, _ string, tid types.TransID, payload []byte, _ float64) error {
	kind := payload[0]
	f.mu.Lock()
	if f.sent[peer] == nil {
		f.sent[peer] = make(map[uint8]int)
	}
	f.sent[peer][kind]++
	script := f.script
	f.mu.Unlock()
	if script != nil {
		script(peer, tid, kind)
	}
	return nil
}

func (f *fakeCM) sentCount(peer types.NodeID, kind uint8) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent[peer][kind]
}

// reply feeds a datagram from peer back into the manager under test.
func reply(m *Manager, peer types.NodeID, tid types.TransID, kind uint8, st types.Status) {
	_, _ = m.handleDatagram(peer, tid, encodeDG(kind, st))
}

// TestCoordinatorVoteHandling drives the coordinator side of tree commit
// through scripted vote deliveries: duplicated votes must not double-count
// toward the quorum, and a vote that arrives after the decision must not
// resurrect the transaction.
func TestCoordinatorVoteHandling(t *testing.T) {
	cases := []struct {
		name string
		// votes[peer] is the sequence of vote kinds the child answers each
		// dgPrepare with (all delivered immediately, in order — so lists
		// longer than 1 are duplicates). A missing entry keeps the child
		// silent.
		votes         map[types.NodeID][]uint8
		wantCommitted bool
		wantLogged    int // LogCommit calls
		wantAborted   int // minimum rm.Abort calls
	}{
		{
			name: "all commit",
			votes: map[types.NodeID][]uint8{
				"b": {dgVoteCommit}, "c": {dgVoteCommit},
			},
			wantCommitted: true,
			wantLogged:    1,
		},
		{
			name: "duplicate commit votes count once",
			votes: map[types.NodeID][]uint8{
				"b": {dgVoteCommit, dgVoteCommit, dgVoteCommit}, "c": {dgVoteCommit},
			},
			wantCommitted: true,
			wantLogged:    1,
		},
		{
			name: "one abort vote dooms the tree despite duplicates",
			votes: map[types.NodeID][]uint8{
				"b": {dgVoteAbort, dgVoteCommit}, "c": {dgVoteCommit, dgVoteCommit},
			},
			wantCommitted: false,
			wantLogged:    0,
			wantAborted:   1,
		},
		{
			name: "read-only children skip phase two",
			votes: map[types.NodeID][]uint8{
				"b": {dgVoteReadOnly}, "c": {dgVoteReadOnly},
			},
			wantCommitted: true,
			wantLogged:    1, // local work still commits
		},
		{
			name: "silent child times out to abort",
			votes: map[types.NodeID][]uint8{
				"b": {dgVoteCommit},
			},
			wantCommitted: false,
			wantLogged:    0,
			wantAborted:   1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rm := &fakeRM{}
			cm := newFakeCM("a", "b", "c")
			m := New("a", rm, cm, nil)
			defer m.Crash()
			m.Configure(10*time.Millisecond, 2, time.Hour)
			cm.script = func(peer types.NodeID, tid types.TransID, kind uint8) {
				switch kind {
				case dgPrepare:
					for _, v := range tc.votes[peer] {
						reply(m, peer, tid, v, types.StatusUnknown)
					}
				case dgCommit, dgAbort:
					reply(m, peer, tid, dgAck, types.StatusUnknown)
				}
			}
			tid, err := m.Begin(types.NilTransID)
			if err != nil {
				t.Fatal(err)
			}
			committed, err := m.End(tid)
			if committed != tc.wantCommitted {
				t.Fatalf("committed = %v (err %v), want %v", committed, err, tc.wantCommitted)
			}
			commits, aborts := rm.counts()
			if commits != tc.wantLogged {
				t.Fatalf("LogCommit called %d times, want %d", commits, tc.wantLogged)
			}
			if aborts < tc.wantAborted {
				t.Fatalf("rm.Abort called %d times, want at least %d", aborts, tc.wantAborted)
			}
			// A straggler vote after the decision must not resurrect or
			// re-decide anything.
			reply(m, "b", tid, dgVoteCommit, types.StatusUnknown)
			if c2, _ := rm.counts(); c2 != commits {
				t.Fatalf("late vote changed LogCommit count %d -> %d", commits, c2)
			}
			wantSt := types.StatusAborted
			if tc.wantCommitted {
				wantSt = types.StatusCommitted
			}
			if st := m.Status(tid); st != wantSt {
				t.Fatalf("status after late vote = %v, want %v", st, wantSt)
			}
		})
	}
}

// TestSilentChildRetransmits checks the coordinator retransmits the
// prepare to a silent child before giving up.
func TestSilentChildRetransmits(t *testing.T) {
	rm := &fakeRM{}
	cm := newFakeCM("a", "b")
	m := New("a", rm, cm, nil)
	defer m.Crash()
	m.Configure(5*time.Millisecond, 3, time.Hour)
	tid, err := m.Begin(types.NilTransID)
	if err != nil {
		t.Fatal(err)
	}
	if committed, _ := m.End(tid); committed {
		t.Fatal("committed with a silent child")
	}
	if n := cm.sentCount("b", dgPrepare); n < 3 {
		t.Fatalf("prepare sent %d times to silent child, want >= 3", n)
	}
}

// remoteTID builds a TID rooted at another node, as a participant sees.
func remoteTID(root types.NodeID, seq uint64) types.TransID {
	return types.TransID{Node: root, Seq: seq, RootNode: root, RootSeq: seq}
}

// TestParticipantDuplicatePhase2 drives the participant side: a duplicated
// commit instruction must log exactly one commit record but re-ack, and a
// duplicated abort must undo exactly once.
func TestParticipantDuplicatePhase2(t *testing.T) {
	for _, commit := range []bool{true, false} {
		name := "commit"
		if !commit {
			name = "abort"
		}
		t.Run(name, func(t *testing.T) {
			rm := &fakeRM{}
			cm := newFakeCM("p") // leaf participant: no children
			m := New("p", rm, cm, nil)
			defer m.Crash()
			m.Configure(10*time.Millisecond, 2, time.Hour)
			tid := remoteTID("coord", 1)
			m.NoteRemote(tid)
			m.participantPrepare("coord", tid, nil)
			if n := cm.sentCount("coord", dgVoteCommit); n != 1 {
				t.Fatalf("vote sent %d times, want 1", n)
			}
			if commit {
				m.participantCommit("coord", tid)
				m.participantCommit("coord", tid) // duplicate
				if commits, _ := rm.counts(); commits != 1 {
					t.Fatalf("LogCommit called %d times for duplicated commit, want 1", commits)
				}
				if n := cm.sentCount("coord", dgAck); n != 2 {
					t.Fatalf("acks sent %d, want 2 (one per instruction)", n)
				}
				if st := m.Status(tid); st != types.StatusCommitted {
					t.Fatalf("status = %v, want committed", st)
				}
			} else {
				m.participantAbort("coord", tid)
				_, aborts := rm.counts()
				m.participantAbort("coord", tid) // duplicate
				if _, aborts2 := rm.counts(); aborts2 != aborts {
					t.Fatalf("duplicate abort re-ran undo: %d -> %d rm.Abort calls", aborts, aborts2)
				}
				if n := cm.sentCount("coord", dgAck); n != 2 {
					t.Fatalf("acks sent %d, want 2 (one per instruction)", n)
				}
				if st := m.Status(tid); st != types.StatusAborted {
					t.Fatalf("status = %v, want aborted", st)
				}
			}
		})
	}
}

// TestAbortRetriesAfterUndoFailure: an abort whose undo fails (injected
// log error) must leave the transaction retryable, and the retry must
// complete the undo — the sweeper-driven fix for stranded locks.
func TestAbortRetriesAfterUndoFailure(t *testing.T) {
	rm := &fakeRM{failAbort: errors.New("injected undo failure")}
	cm := newFakeCM("a")
	m := New("a", rm, cm, nil)
	defer m.Crash()
	m.Configure(10*time.Millisecond, 2, time.Hour)
	tid, err := m.Begin(types.NilTransID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(tid); err == nil {
		t.Fatal("abort should surface the undo failure")
	}
	if m.LiveTransactions() != 1 {
		t.Fatalf("failed abort dropped the transaction: %d live, want 1", m.LiveTransactions())
	}
	// Before the undone/aborting restructure this second call returned nil
	// immediately (state already aborted) without ever undoing.
	rm.mu.Lock()
	rm.failAbort = nil
	rm.mu.Unlock()
	lt, err := m.lookup(tid)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.abortTree(lt); err != nil {
		t.Fatalf("retry abort: %v", err)
	}
	if m.LiveTransactions() != 0 {
		t.Fatalf("retried abort left %d live transactions", m.LiveTransactions())
	}
	if _, aborts := rm.counts(); aborts < 2 {
		t.Fatalf("undo ran %d times, want >= 2 (original + retry)", aborts)
	}
	if st := m.Status(tid); st != types.StatusAborted {
		t.Fatalf("status = %v, want aborted", st)
	}
}

// TestRestorePrepared: after a participant crash, recovery hands the
// still-prepared transaction back; the restored state must answer a
// retransmitted commit by actually committing, not blind-acking.
func TestRestorePrepared(t *testing.T) {
	rm := &fakeRM{}
	cm := newFakeCM("p")
	m := New("p", rm, cm, nil)
	defer m.Crash()
	m.Configure(10*time.Millisecond, 2, time.Hour)
	tid := remoteTID("coord", 9)
	prep := &wal.PrepareBody{Parent: "coord"}
	m.RestorePrepared(tid, prep)
	m.RestorePrepared(tid, prep) // idempotent
	if m.LiveTransactions() != 1 {
		t.Fatalf("restored %d live transactions, want 1", m.LiveTransactions())
	}
	if st := m.Status(tid); st != types.StatusPrepared {
		t.Fatalf("restored status = %v, want prepared", st)
	}
	m.participantCommit("coord", tid)
	if commits, _ := rm.counts(); commits != 1 {
		t.Fatalf("commit after restore logged %d commit records, want 1", commits)
	}
	if st := m.Status(tid); st != types.StatusCommitted {
		t.Fatalf("status = %v, want committed", st)
	}
	if m.LiveTransactions() != 0 {
		t.Fatalf("%d live transactions after commit, want 0", m.LiveTransactions())
	}
}

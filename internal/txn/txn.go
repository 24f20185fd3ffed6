// Package txn implements the TABS Transaction Manager (paper §3.2.3).
//
// The Transaction Manager allocates globally unique transaction
// identifiers, tracks which data servers and which remote nodes become
// involved in each transaction (told by servers' first-operation messages
// and the Communication Manager's first-remote-message notifications), and
// implements the tree-structured variant of the two-phase commit protocol:
// each node acts as coordinator for the nodes that are its children in the
// spanning tree built from "who first invoked an operation on whom".
//
// Subtransactions need no extra machinery (§3.2.3): the same messages
// track them, they may abort without aborting their parent, they commit
// only when the top-level transaction commits, and a parent's outcome is
// applied to them at top-level commit or abort time.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tabs/internal/acp"
	"tabs/internal/simclock"
	"tabs/internal/stats"
	"tabs/internal/trace"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// Participant is the server-library interface the Transaction Manager
// drives at transaction termination. Locks are released here — "all
// unlocking is done automatically by the server library at commit or abort
// time" (§3.1.1).
type Participant interface {
	// CommitTrans finalizes the top-level transaction and every local
	// subtransaction belonging to it: release their locks, drop volatile
	// per-transaction state.
	CommitTrans(top types.TransID)
	// AbortTrans releases the locks of exactly the given (sub)transaction
	// after the Recovery Manager has undone its effects.
	AbortTrans(tid types.TransID)
}

// RecoveryManager is the slice of the Recovery Manager the Transaction
// Manager needs.
type RecoveryManager interface {
	LogCommit(tid types.TransID) error
	LogPrepare(tid types.TransID, p *wal.PrepareBody) error
	Abort(tid types.TransID) error
	HasLogged(tid types.TransID) bool
}

// CommManager is the slice of the Communication Manager the Transaction
// Manager needs: the spanning tree and datagram transmission (§2.1.2:
// "TABS has been careful to use datagrams for communication during
// transaction commit").
type CommManager interface {
	Node() types.NodeID
	Tree(tid types.TransID) (parent types.NodeID, hasParent bool, children []types.NodeID)
	ForgetTree(tid types.TransID)
	SendDatagram(peer types.NodeID, service string, tid types.TransID, payload []byte, charge float64) error
	RegisterService(service string, handler func(from types.NodeID, tid types.TransID, payload []byte) ([]byte, error))
}

// Errors.
var (
	ErrUnknownTrans = errors.New("txn: unknown transaction")
	ErrNotActive    = errors.New("txn: transaction not active")
	ErrVoteTimeout  = errors.New("txn: participant vote not received")
	ErrAborted      = errors.New("txn: transaction aborted")
	// ErrInDoubt is returned by End when a replicated commit decision could
	// not be confirmed here but may have been established by a competing
	// recovery proposer: the transaction is neither committed nor aborted
	// from the caller's point of view. It resolves asynchronously (the
	// in-doubt resolver and orphan sweeper consult the acceptor quorum);
	// poll Status for the terminal outcome.
	ErrInDoubt = errors.New("txn: commit outcome in doubt")
)

// Service is the Communication Manager service name for commit datagrams.
const Service = "txn"

type state int

const (
	stActive state = iota
	stPreparing
	stPrepared
	stCommitted
	stAborted
)

// localTrans is one node's view of one top-level transaction.
type localTrans struct {
	top     types.TransID
	state   state
	servers map[types.ServerID]Participant
	// subs maps local subtransactions to their status: active,
	// committed (pending root), or aborted (already undone).
	subs      map[types.TransID]types.Status
	subParent map[types.TransID]types.TransID
	remote    bool
	prep      *wal.PrepareBody // recorded at participant prepare
	lastTouch time.Time        // last sign of life, for orphan detection
	// undone is set once an abort's undo phase has fully completed;
	// aborting marks an undo in flight. state == stAborted with undone
	// false means a previous abort failed partway (log or disk error) and
	// the orphan sweeper must retry it, or locks stay stranded.
	undone   bool
	aborting bool
	// resolvedAbort marks that an Aborted outcome for a prepared
	// transaction came from an authoritative source (the coordinator's
	// phase-2 instruction or the acceptor quorum). abortTree refuses to
	// abort a transaction prepared under a replicated protocol without it:
	// presumed abort is unsound once the decision lives at the acceptors.
	resolvedAbort bool
}

// Manager is one node's Transaction Manager.
type Manager struct {
	node types.NodeID
	rm   RecoveryManager
	cm   CommManager
	rec  *stats.Recorder
	tr   *trace.Tracer

	mu    sync.Mutex
	seq   uint64
	trans map[types.TransID]*localTrans // keyed by top-level TID
	// protocol decides how a top-level commit becomes durable: nil — the
	// default — is the paper's two-phase commit, where the coordinator's
	// forced commit record is the decision and in-doubt participants ask
	// the parent named in their prepare record; otherwise a replicated
	// protocol (acp package) installed with SetProtocol.
	protocol acp.Protocol
	// decideHook, when set, is called at the commit decision point with
	// phase "decide" (before the decision is attempted) and "decided"
	// (after the outcome is durably established). Fault-injection harnesses
	// use it to park the coordinator at the worst possible instant; it runs
	// without m.mu held and may block forever.
	decideHook func(types.TransID, string)
	// outcomes remembers terminal results for status queries and
	// TransactionIsAborted; restart repopulates it from the log.
	outcomes map[types.TransID]types.Status
	waiters  map[waitKey]chan dgMsg

	// voteTimeout bounds one wait for a child's vote or ack; retries is
	// the number of datagram (re)transmissions before giving up;
	// orphanTimeout bounds how long a remote-rooted transaction may stay
	// active with no sign of life before this node asks its coordinator
	// for the outcome. Tune with Configure.
	voteTimeout   time.Duration
	retries       int
	orphanTimeout time.Duration

	stopSweep chan struct{}
	// retime wakes the orphan sweeper out of a sleep it sized from an
	// orphan time-out that Configure has since changed.
	retime chan struct{}
}

type waitKey struct {
	tid  types.TransID
	from types.NodeID
	kind uint8
}

// New returns a Transaction Manager and registers its datagram service
// with the Communication Manager (cm may be nil for single-node use).
func New(node types.NodeID, rm RecoveryManager, cm CommManager, rec *stats.Recorder) *Manager {
	m := &Manager{
		node:          node,
		rm:            rm,
		cm:            cm,
		rec:           rec,
		trans:         make(map[types.TransID]*localTrans),
		outcomes:      make(map[types.TransID]types.Status),
		waiters:       make(map[waitKey]chan dgMsg),
		voteTimeout:   time.Second,
		retries:       4,
		orphanTimeout: 30 * time.Second,
		stopSweep:     make(chan struct{}),
		retime:        make(chan struct{}, 1),
	}
	if cm != nil {
		cm.RegisterService(Service, m.handleDatagram)
		go m.orphanSweeper()
	}
	return m
}

// SetProtocol installs the atomic-commit protocol used for top-level
// commits (nil restores the built-in two-phase commit). Install before
// transactions start; transactions prepared under one protocol resolve by
// the acceptor set recorded in their prepare records, not by the protocol
// installed at resolution time.
func (m *Manager) SetProtocol(p acp.Protocol) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.protocol = p
}

// SetDecideHook installs a hook called at the commit decision point (see
// the decideHook field). Harness use only; nil clears it.
func (m *Manager) SetDecideHook(h func(types.TransID, string)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.decideHook = h
}

// getProtocol snapshots the installed protocol under the lock.
func (m *Manager) getProtocol() acp.Protocol {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.protocol
}

// fireHook invokes the decide hook, if any, outside m.mu.
func (m *Manager) fireHook(tid types.TransID, phase string) {
	m.mu.Lock()
	h := m.decideHook
	m.mu.Unlock()
	if h != nil {
		h(tid, phase)
	}
}

// AttachTracer points the manager's commit-protocol spans and counters at
// tr. Call before transactions start; a nil tracer disables them.
func (m *Manager) AttachTracer(tr *trace.Tracer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tr = tr
}

// touch records a sign of life for the transaction. Caller holds m.mu.
func (lt *localTrans) touch() { lt.lastTouch = time.Now() }

// Configure tunes the commit-protocol timing: vote is the per-round wait
// for a child's reply, retries the number of datagram (re)transmissions,
// and orphan the silence threshold after which a remote-rooted active
// transaction is resolved with its coordinator. Zero values leave the
// current setting unchanged. Safe to call at any time.
func (m *Manager) Configure(vote time.Duration, retries int, orphan time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if vote > 0 {
		m.voteTimeout = vote
	}
	if retries > 0 {
		m.retries = retries
	}
	if orphan > 0 {
		m.orphanTimeout = orphan
		select {
		case m.retime <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// timing snapshots the tuning knobs under the lock.
func (m *Manager) timing() (vote time.Duration, retries int, orphan time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.voteTimeout, m.retries, m.orphanTimeout
}

// orphanSweeper periodically looks for remote-rooted transactions that
// have been silent past the orphan time-out and resolves them with their
// coordinators; a coordinator that forgot them (it crashed before
// committing) answers presumed-abort and the stranded locks come free.
func (m *Manager) orphanSweeper() {
	for {
		_, _, orphan := m.timing()
		interval := orphan / 3
		if interval < 50*time.Millisecond {
			interval = 50 * time.Millisecond
		}
		select {
		case <-m.stopSweep:
			return
		case <-m.retime:
			// The sleep above was a third of the old time-out (ten seconds
			// by default); start over on the new one.
			continue
		case <-time.After(interval):
		}
		m.sweepOrphans()
	}
}

// Sweep candidate classes.
const (
	candActive     = iota // remote-rooted, active, silent: orphan query
	candPrepared          // prepared in doubt: re-resolve with coordinator
	candAbortRetry        // abort failed mid-undo: retry the undo
)

// sweepOrphans runs one orphan-detection pass. Beyond the paper's orphan
// query for silent remote-rooted ACTIVE transactions, it re-resolves
// PREPARED transactions whose phase-2 instruction never arrived (lost to a
// partition or a coordinator crash — without this, a participant that had
// used up its one resolveWhenStuck query stayed in doubt forever, holding
// its locks past any partition heal) and retries aborts whose undo phase
// failed partway (without this, a transient log/disk error during undo
// stranded the transaction's locks permanently).
func (m *Manager) sweepOrphans() {
	_, _, orphan := m.timing()
	m.mu.Lock()
	cutoff := time.Now().Add(-orphan)
	type cand struct {
		lt     *localTrans
		parent types.NodeID
		class  int
	}
	var cands []cand
	for top, lt := range m.trans {
		if lt.state == stAborted {
			// Stuck aborts are retried regardless of where the
			// transaction was rooted.
			if !lt.undone && !lt.aborting {
				cands = append(cands, cand{lt: lt, class: candAbortRetry})
			}
			continue
		}
		if !lt.remote && lt.state != stPrepared {
			// Locally-rooted transactions resolve synchronously — except a
			// root left prepared in doubt (a replicated commit decision
			// that could not be confirmed), which is swept like any other
			// in-doubt participant.
			continue
		}
		if lt.lastTouch.IsZero() || lt.lastTouch.After(cutoff) {
			continue
		}
		parent := top.Node // the transaction's home node coordinates
		if lt.prep != nil && lt.prep.Parent != "" {
			parent = lt.prep.Parent // prepared: ask who we voted to
		} else if m.cm != nil {
			if p, has, _ := m.cm.Tree(top); has {
				parent = p
			}
		}
		switch lt.state {
		case stActive:
			cands = append(cands, cand{lt: lt, parent: parent, class: candActive})
		case stPrepared:
			cands = append(cands, cand{lt: lt, parent: parent, class: candPrepared})
		}
	}
	m.mu.Unlock()
	for _, c := range cands {
		if c.class == candAbortRetry {
			m.tr.Count("txn.abort.retries", 1)
			_ = m.abortTree(c.lt)
			continue
		}
		var st types.Status
		if c.class == candPrepared {
			st = m.resolveOutcome(c.lt, c.parent)
		} else {
			st = m.queryStatus(c.lt.top, c.parent)
		}
		if c.class == candPrepared {
			switch st {
			case types.StatusCommitted:
				m.participantCommit(c.parent, c.lt.top)
			case types.StatusAborted:
				m.mu.Lock()
				c.lt.resolvedAbort = true
				m.mu.Unlock()
				_ = m.abortTree(c.lt)
			default:
				// Coordinator unreachable or still deciding: a prepared
				// participant must stay in doubt (the 2PC blocking
				// window); ask again next sweep.
				m.mu.Lock()
				c.lt.touch()
				m.mu.Unlock()
			}
			continue
		}
		switch st {
		case types.StatusAborted:
			_ = m.abortTree(c.lt)
		case types.StatusUnknown:
			// No coordinator answered at all. The transaction is still
			// ACTIVE here — it never prepared — so this node may abort
			// its portion unilaterally: 2PC cannot have committed without
			// asking us to prepare first.
			m.mu.Lock()
			stillActive := c.lt.state == stActive
			m.mu.Unlock()
			if stillActive {
				_ = m.abortTree(c.lt)
			}
		default:
			// The coordinator is alive and the transaction is genuinely
			// in progress (or, impossibly for a writer, committed):
			// refresh the clock and look again later.
			m.mu.Lock()
			c.lt.touch()
			m.mu.Unlock()
		}
	}
}

// recordMsgs accounts n small intra-node messages (application/server <->
// Transaction Manager traffic).
func (m *Manager) recordMsgs(n int) {
	if m.rec != nil {
		for i := 0; i < n; i++ {
			m.rec.Record(simclock.SmallMsg)
		}
	}
}

// Begin creates a transaction (BeginTransaction, Table 3-2): a new
// top-level transaction when parent is the null TransID, otherwise a
// subtransaction of parent. The exchange with the Transaction Manager
// costs a request and a reply message.
func (m *Manager) Begin(parent types.TransID) (types.TransID, error) {
	m.recordMsgs(2)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	if parent.IsNil() {
		tid := types.TransID{Node: m.node, Seq: m.seq, RootNode: m.node, RootSeq: m.seq}
		lt := &localTrans{
			top:       tid,
			servers:   make(map[types.ServerID]Participant),
			subs:      make(map[types.TransID]types.Status),
			subParent: make(map[types.TransID]types.TransID),
		}
		lt.touch()
		m.trans[tid] = lt
		m.tr.Begin("txn", "begin").SetTID(tid).End()
		return tid, nil
	}
	top := parent.TopLevel()
	lt := m.trans[top]
	if lt == nil {
		// First local activity for a remote-rooted transaction.
		lt = &localTrans{
			top:       top,
			servers:   make(map[types.ServerID]Participant),
			subs:      make(map[types.TransID]types.Status),
			subParent: make(map[types.TransID]types.TransID),
			remote:    true,
		}
		m.trans[top] = lt
	}
	if lt.state != stActive {
		return types.NilTransID, fmt.Errorf("%w: %v", ErrNotActive, parent)
	}
	if !parent.IsTopLevel() {
		if st, ok := lt.subs[parent]; !ok || st != types.StatusActive {
			return types.NilTransID, fmt.Errorf("%w: parent %v", ErrNotActive, parent)
		}
	}
	sub := types.TransID{Node: m.node, Seq: m.seq, RootNode: top.RootNode, RootSeq: top.RootSeq}
	lt.subs[sub] = types.StatusActive
	lt.subParent[sub] = parent
	lt.touch()
	m.tr.Begin("txn", "begin").SetTID(sub).Annotate("sub=true").End()
	return sub, nil
}

// JoinServer records that server performed its first operation on behalf
// of tid ("doing so enables the Transaction Manager to know which servers
// it must inform when the transaction is being terminated", §3.2.3).
func (m *Manager) JoinServer(tid types.TransID, server types.ServerID, p Participant) {
	m.recordMsgs(1)
	top := tid.TopLevel()
	m.mu.Lock()
	defer m.mu.Unlock()
	lt := m.trans[top]
	if lt == nil {
		lt = &localTrans{
			top:       top,
			servers:   make(map[types.ServerID]Participant),
			subs:      make(map[types.TransID]types.Status),
			subParent: make(map[types.TransID]types.TransID),
			remote:    top.Node != m.node,
		}
		m.trans[top] = lt
	}
	if !tid.IsTopLevel() {
		if _, ok := lt.subs[tid]; !ok {
			lt.subs[tid] = types.StatusActive
			lt.subParent[tid] = top
		}
	}
	lt.servers[server] = p
	lt.touch()
}

// NoteRemote implements comm.TransactionNoter: remote sites now have
// servers active on behalf of tid.
func (m *Manager) NoteRemote(tid types.TransID) {
	top := tid.TopLevel()
	m.mu.Lock()
	defer m.mu.Unlock()
	lt := m.trans[top]
	if lt == nil {
		lt = &localTrans{
			top:       top,
			servers:   make(map[types.ServerID]Participant),
			subs:      make(map[types.TransID]types.Status),
			subParent: make(map[types.TransID]types.TransID),
			remote:    top.Node != m.node,
		}
		m.trans[top] = lt
	}
	lt.remote = true
	lt.touch()
}

// RestorePrepared implements recovery.PreparedRestorer: crash restart hands
// back every transaction whose prepare record survives in the log with no
// outcome. The Transaction Manager rebuilds the volatile state it held
// before the crash — a prepared, remote-rooted localTrans — so the orphan
// sweeper resumes resolving it with the coordinator recorded in the prepare
// body, and a retransmitted phase-2 commit finds a transaction to apply.
// Without this, a participant that crashed after voting forgot it was
// prepared: participantCommit's "no state" path acked commits it never
// applied, and the in-doubt transaction's locks and effects were stranded.
func (m *Manager) RestorePrepared(tid types.TransID, prep *wal.PrepareBody) {
	top := tid.TopLevel()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.trans[top] != nil {
		return
	}
	lt := &localTrans{
		top:       top,
		state:     stPrepared,
		servers:   make(map[types.ServerID]Participant),
		subs:      make(map[types.TransID]types.Status),
		subParent: make(map[types.TransID]types.TransID),
		remote:    true,
		prep:      prep,
	}
	lt.touch()
	m.trans[top] = lt
	m.tr.Count("txn.restored_prepared", 1)
}

// LiveTransactions reports how many transactions this node still holds
// volatile state for — in-flight, prepared in doubt, or mid-abort. Torture
// harnesses use it as the quiescence check: after every failure is healed,
// the count must drain to zero on every node.
func (m *Manager) LiveTransactions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.trans)
}

// InDoubt lists the top-level transactions this node holds in the
// prepared state — voted (or, for a root under a replicated protocol,
// proposed) but without a learned outcome. Diagnostic surface for tabsctl
// and the torture harnesses.
func (m *Manager) InDoubt() []types.TransID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []types.TransID
	for top, lt := range m.trans {
		if lt.state == stPrepared {
			out = append(out, top)
		}
	}
	return out
}

// Status reports what this node knows about tid's outcome.
func (m *Manager) Status(tid types.TransID) types.Status {
	top := tid.TopLevel()
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.outcomes[tid]; ok {
		return st
	}
	lt := m.trans[top]
	if lt == nil {
		return types.StatusUnknown
	}
	if !tid.IsTopLevel() {
		if st, ok := lt.subs[tid]; ok {
			if st == types.StatusAborted {
				return types.StatusAborted
			}
			// Committed-pending subtransactions are still provisional.
			return types.StatusActive
		}
		return types.StatusUnknown
	}
	switch lt.state {
	case stCommitted:
		return types.StatusCommitted
	case stAborted:
		return types.StatusAborted
	case stPrepared, stPreparing:
		return types.StatusPrepared
	default:
		return types.StatusActive
	}
}

// IsAborted reports whether tid (or its top-level ancestor) is known to
// have aborted; the application library surfaces this as the
// TransactionIsAborted exception (Table 3-2).
func (m *Manager) IsAborted(tid types.TransID) bool {
	st := m.Status(tid)
	if st == types.StatusAborted {
		return true
	}
	return m.Status(tid.TopLevel()) == types.StatusAborted
}

// lookup returns the localTrans for tid's top-level transaction.
func (m *Manager) lookup(tid types.TransID) (*localTrans, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lt := m.trans[tid.TopLevel()]
	if lt == nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownTrans, tid)
	}
	return lt, nil
}

// End commits tid (EndTransaction, Table 3-2). For a subtransaction this
// records a provisional commit — its effects and locks are retained until
// the top-level transaction resolves. For a top-level transaction it runs
// the commit protocol and returns whether the transaction committed.
func (m *Manager) End(tid types.TransID) (bool, error) {
	m.recordMsgs(2)
	lt, err := m.lookup(tid)
	if err != nil {
		return false, err
	}
	if !tid.IsTopLevel() {
		m.mu.Lock()
		defer m.mu.Unlock()
		st, ok := lt.subs[tid]
		if !ok {
			return false, fmt.Errorf("%w: %v", ErrUnknownTrans, tid)
		}
		if st != types.StatusActive {
			return false, fmt.Errorf("%w: %v is %v", ErrNotActive, tid, st)
		}
		// Provisionally committed: resolved at top-level termination
		// ("a subtransaction is not committed until its top-level parent
		// transaction commits", §2.1.3).
		lt.subs[tid] = types.StatusCommitted
		return true, nil
	}
	if tid.Node != m.node {
		return false, fmt.Errorf("txn: End of %v must run on its home node %s", tid, tid.Node)
	}
	return m.commitTree(lt)
}

// Abort aborts tid (AbortTransaction, Table 3-2). Aborting a
// subtransaction undoes and releases only that subtransaction (and its
// descendants); the parent continues. Aborting a top-level transaction
// tears down the whole tree.
func (m *Manager) Abort(tid types.TransID) error {
	m.recordMsgs(2)
	lt, err := m.lookup(tid)
	if err != nil {
		return err
	}
	if !tid.IsTopLevel() {
		return m.abortSub(lt, tid)
	}
	return m.abortTree(lt)
}

// abortSub aborts one subtransaction and every active descendant of it.
func (m *Manager) abortSub(lt *localTrans, tid types.TransID) error {
	m.mu.Lock()
	if st, ok := lt.subs[tid]; !ok || st != types.StatusActive {
		m.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrNotActive, tid)
	}
	// Collect tid and its descendants, deepest first.
	doomed := []types.TransID{tid}
	for i := 0; i < len(doomed); i++ {
		for sub, parent := range lt.subParent {
			if parent == doomed[i] && lt.subs[sub] == types.StatusActive {
				doomed = append(doomed, sub)
			}
		}
	}
	for _, d := range doomed {
		lt.subs[d] = types.StatusAborted
	}
	servers := participants(lt)
	m.mu.Unlock()

	for i := len(doomed) - 1; i >= 0; i-- {
		if err := m.rm.Abort(doomed[i]); err != nil {
			return err
		}
		for _, p := range servers {
			m.recordMsgs(1)
			p.AbortTrans(doomed[i])
		}
	}
	return nil
}

func participants(lt *localTrans) []Participant {
	out := make([]Participant, 0, len(lt.servers))
	for _, p := range lt.servers {
		out = append(out, p)
	}
	return out
}

// localTIDs returns the top-level TID plus every local subtransaction that
// has not independently aborted.
func localTIDs(lt *localTrans) []types.TransID {
	out := []types.TransID{lt.top}
	for sub, st := range lt.subs {
		if st != types.StatusAborted {
			out = append(out, sub)
		}
	}
	return out
}

// finishLocal releases local state after a terminal outcome.
func (m *Manager) finishLocal(lt *localTrans, st types.Status) {
	m.mu.Lock()
	m.outcomes[lt.top] = st
	if len(m.outcomes) > 65536 {
		// Bound the table; old outcomes fall back to presumed abort.
		m.outcomes = map[types.TransID]types.Status{lt.top: st}
	}
	delete(m.trans, lt.top)
	m.mu.Unlock()
	if m.cm != nil {
		m.cm.ForgetTree(lt.top)
	}
}

package acp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tabs/internal/trace"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// Service is the Communication Manager service name for acceptor traffic.
const Service = "acp"

// CommManager is the slice of the Communication Manager the acp layer
// uses: unreliable datagrams and service registration, exactly like txn.
type CommManager interface {
	SendDatagram(peer types.NodeID, service string, tid types.TransID, payload []byte, charge float64) error
	RegisterService(service string, handler func(from types.NodeID, tid types.TransID, payload []byte) ([]byte, error))
}

// Logger persists acceptor state. body is a self-contained entry encoding
// (appendEntryState); force must not return until the record is stable.
// Implemented by recovery.Manager.LogACP; nil disables durability (tests).
type Logger interface {
	LogACP(body []byte, force bool) error
}

// entry is one transaction's acceptor state: the batched Paxos instance
// group for that transaction's vote vector.
type entry struct {
	promised  Ballot // highest ballot promised (zero = none)
	accepted  bool
	abal      Ballot // ballot at which aval was accepted
	aval      Value
	decided   bool
	dval      Value
	stamp     uint64    // creation order, for bounded-table eviction
	decidedAt time.Time // when decided was set; gates eviction
}

// maxEntries bounds the acceptor table. Only decided entries whose
// decision is older than evictTTL may be evicted past the bound (a
// participant that never sent Forget); everything else — undecided
// entries, whose promises are safety-critical facts, and recently decided
// entries, which a slow participant may still need to learn from — is
// kept even if that pushes the table over the bound.
const maxEntries = 4096

// evictTTL is how long a decided-but-unforgotten entry is immune from
// eviction. Dropping such an entry early is the same atomicity hazard as
// a premature Forget: if every acceptor loses a committed transaction's
// decision, a still-prepared participant's recovery ballot concludes
// Abort. The TTL is generous relative to retry windows so only a
// participant that is gone for good pays it.
const evictTTL = time.Minute

type waitKey struct {
	tid   types.TransID
	op    byte
	nonce uint32
}

type reply struct {
	from types.NodeID
	d    *dgram
}

// Manager is one node's acp endpoint: acceptor for the cluster's commit
// decisions, proposer for transactions this node coordinates, and
// recovery proposer/learner for in-doubt transactions it participates in.
// It implements Protocol (Paxos Commit) and is wired as recovery's
// ACPSource and acp traffic handler by core.NewNode.
type Manager struct {
	node types.NodeID
	cm   CommManager
	tr   *trace.Tracer

	mu        sync.Mutex
	logger    Logger
	acceptors []types.NodeID
	entries   map[types.TransID]*entry
	waiters   map[waitKey]chan reply
	stamp     uint64
	// balCtr is the highest recovery ballot number used as proposer. It is
	// forced to the log before a new ballot's first use and restored at
	// restart, so a crashed-and-rebooted proposer can never reuse a ballot
	// number with a different value.
	balCtr   uint32
	nonceCtr uint32
	timeout  time.Duration
	retries  int
}

// New creates the manager and registers the "acp" service with cm. The
// acceptor role is always on — a node answers acceptor traffic even when
// its own transactions use 2PC — but it participates in no decision until
// SetAcceptors names it in some transaction's replica set.
func New(node types.NodeID, cm CommManager) *Manager {
	m := &Manager{
		node:    node,
		cm:      cm,
		entries: make(map[types.TransID]*entry),
		waiters: make(map[waitKey]chan reply),
		timeout: 150 * time.Millisecond,
		retries: 3,
	}
	if cm != nil {
		cm.RegisterService(Service, m.handle)
	}
	return m
}

// AttachTracer points acp.* spans and counters at tr (nil disables).
func (m *Manager) AttachTracer(tr *trace.Tracer) { m.tr = tr }

// SetLogger installs the WAL-backed persistence hook.
func (m *Manager) SetLogger(l Logger) {
	m.mu.Lock()
	m.logger = l
	m.mu.Unlock()
}

// SetAcceptors installs the replica set used for transactions this node
// coordinates from now on. In-flight transactions are unaffected: they
// carry their acceptor set in prepare records and messages, which is what
// makes between-transaction reconfiguration safe.
func (m *Manager) SetAcceptors(acceptors []types.NodeID) {
	cp := append([]types.NodeID(nil), acceptors...)
	m.mu.Lock()
	m.acceptors = cp
	m.mu.Unlock()
}

// Configure sets the per-round reply timeout and retransmit count.
func (m *Manager) Configure(timeout time.Duration, retries int) {
	m.mu.Lock()
	m.timeout, m.retries = timeout, retries
	m.mu.Unlock()
}

// Crash discards all volatile state, simulating node failure. Durable
// acceptor state — including the proposer ballot counter — comes back
// through RestoreState/RestoreRecord at restart.
func (m *Manager) Crash() {
	m.mu.Lock()
	m.entries = make(map[types.TransID]*entry)
	m.waiters = make(map[waitKey]chan reply)
	m.balCtr = 0
	m.mu.Unlock()
}

func quorum(n int) int { return n/2 + 1 }

// String renders a ballot for reports.
func (b Ballot) String() string { return fmt.Sprintf("%d.%s", b.N, b.Node) }

// --- Protocol implementation (the Paxos Commit side) ------------------------

// Acceptors implements Protocol.
func (m *Manager) Acceptors() []types.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]types.NodeID(nil), m.acceptors...)
}

// ErrNoQuorum reports that a proposal round could not reach a quorum of
// acceptors; the transaction outcome is in doubt, not aborted.
var ErrNoQuorum = errors.New("acp: no acceptor quorum")

// DecideCommit implements Protocol: propose the all-Prepared vote vector
// for members at the fast-path zero ballot. No phase 1 is needed — ballot
// zero is reserved for the coordinator, so no acceptor can have accepted
// a competing value below it. An error means no quorum accepted *here*;
// the outcome is in doubt until ResolveInDoubt learns it.
func (m *Manager) DecideCommit(tid types.TransID, members []types.NodeID) error {
	acceptors := m.Acceptors()
	if len(acceptors) == 0 {
		return errors.New("acp: no acceptors configured")
	}
	val := Value{Members: make([]Member, len(members))}
	for i, n := range members {
		val.Members[i] = Member{Node: n, Vote: VotePrepared}
	}
	sp := m.tr.Begin("acp", "decide").SetTID(tid)
	err := m.phase2(tid, Ballot{N: 0, Node: m.node}, val, acceptors)
	if err != nil {
		sp.Annotate("outcome=in-doubt").End()
		m.tr.Count("acp.decide.noquorum", 1)
		return err
	}
	m.broadcast(tid, &dgram{op: opDecide, flags: fDecided, val: val}, acceptors)
	sp.End()
	m.tr.Count("acp.decide.commit", 1)
	return nil
}

// ResolveInDoubt implements Protocol: learn or force the outcome of a
// prepared transaction against its acceptor set. Returns StatusPrepared
// when no quorum is reachable — still in doubt, the caller retries.
func (m *Manager) ResolveInDoubt(tid types.TransID, prep *wal.PrepareBody) types.Status {
	var acceptors []types.NodeID
	if prep != nil {
		acceptors = prep.Acceptors
	}
	if len(acceptors) == 0 {
		acceptors = m.Acceptors()
	}
	if len(acceptors) == 0 {
		return types.StatusPrepared
	}
	sp := m.tr.Begin("acp", "resolve").SetTID(tid)
	defer sp.End()
	// Cheap learn first: if any acceptor already knows the decision, take
	// it without running a ballot.
	if v, ok := m.learn(tid, acceptors); ok {
		sp.Annotate("via=learn")
		return m.resolved(tid, v, acceptors)
	}
	// Recovery proposer: run full Paxos rounds at fresh ballots, proposing
	// the highest accepted value seen — or the Aborted sentinel for a vote
	// vector no coordinator got accepted anywhere.
	for attempt := 0; attempt <= 2; attempt++ {
		bal, ok := m.nextBallot()
		if !ok {
			// The ballot could not be made durable; using it anyway could
			// repeat a ballot number after a crash. Stay in doubt.
			continue
		}
		promises, prev, decided, seen := m.phase1(tid, bal, acceptors)
		if decided != nil {
			sp.Annotate("via=phase1-decided")
			return m.resolved(tid, *decided, acceptors)
		}
		m.observeBallot(seen)
		if promises < quorum(len(acceptors)) {
			continue
		}
		val := Value{} // aborted sentinel
		if prev != nil {
			val = *prev
		}
		if m.phase2(tid, bal, val, acceptors) != nil {
			continue
		}
		sp.Annotate("via=recovery-ballot")
		return m.resolved(tid, val, acceptors)
	}
	m.tr.Count("acp.resolve.stuck", 1)
	return types.StatusPrepared
}

// resolved broadcasts the decision and maps it to a status.
func (m *Manager) resolved(tid types.TransID, v Value, acceptors []types.NodeID) types.Status {
	m.broadcast(tid, &dgram{op: opDecide, flags: fDecided, val: v}, acceptors)
	st := v.Outcome()
	if st == types.StatusCommitted {
		m.tr.Count("acp.resolve.commit", 1)
	} else {
		m.tr.Count("acp.resolve.abort", 1)
	}
	return st
}

// Finished implements Protocol: every participant has durably applied the
// outcome, so acceptors may drop their entry.
func (m *Manager) Finished(tid types.TransID, acceptors []types.NodeID) {
	if len(acceptors) == 0 {
		return
	}
	m.broadcast(tid, &dgram{op: opForget}, acceptors)
}

// --- Proposer rounds ---------------------------------------------------------

func (m *Manager) config() (time.Duration, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.timeout, m.retries
}

// nextBallot allocates a fresh recovery ballot, force-logging the counter
// before the ballot is handed out. The order matters: if the log write
// wins and the crash follows, a number is skipped (harmless); if the
// ballot were used first, a restarted proposer could propose a different
// value at the same ballot {N,node} to a disjoint quorum — two values
// accepted at one ballot. Returns ok=false when durability failed; the
// caller must not run a round then.
func (m *Manager) nextBallot() (Ballot, bool) {
	m.mu.Lock()
	m.balCtr++
	n := m.balCtr
	m.mu.Unlock()
	if !m.persist(appendBalCtrState(nil, n), true) {
		return Ballot{}, false
	}
	return Ballot{N: n, Node: m.node}, true
}

// observeBallot raises the ballot counter above a competitor's, so the
// next round is not doomed to rejection.
func (m *Manager) observeBallot(seen Ballot) {
	m.mu.Lock()
	if m.balCtr < seen.N {
		m.balCtr = seen.N
	}
	m.mu.Unlock()
}

// phase1 runs prepare(bal) against acceptors. It returns the number of
// promises at bal, the highest-ballot previously accepted value (nil if
// none), a decided value if any acceptor short-circuited, and the highest
// competing ballot observed in rejections.
func (m *Manager) phase1(tid types.TransID, bal Ballot, acceptors []types.NodeID) (int, *Value, *Value, Ballot) {
	need := quorum(len(acceptors))
	replies := m.collect(tid, acceptors, &dgram{op: opP1a, bal: bal}, opP1b, func(got map[types.NodeID]*dgram) bool {
		n := 0
		for _, r := range got {
			if r.flags&fDecided != 0 {
				return true
			}
			if r.bal == bal {
				n++
			}
		}
		return n >= need
	})
	promises := 0
	var best *Value
	var bestBal, seen Ballot
	for _, r := range replies {
		if r.flags&fDecided != 0 {
			v := r.val
			return 0, nil, &v, seen
		}
		if r.bal == bal {
			promises++
			if r.flags&fAccepted != 0 && (best == nil || bestBal.Less(r.abal)) {
				v := r.val
				best, bestBal = &v, r.abal
			}
		} else if seen.Less(r.bal) {
			seen = r.bal
		}
	}
	return promises, best, nil, seen
}

// phase2 runs accept(bal, val) against acceptors and returns nil once a
// quorum has accepted.
func (m *Manager) phase2(tid types.TransID, bal Ballot, val Value, acceptors []types.NodeID) error {
	need := quorum(len(acceptors))
	count := func(got map[types.NodeID]*dgram) int {
		n := 0
		for _, r := range got {
			if r.flags&fOK != 0 && r.bal == bal {
				n++
			}
		}
		return n
	}
	replies := m.collect(tid, acceptors, &dgram{op: opP2a, bal: bal, val: val}, opP2b, func(got map[types.NodeID]*dgram) bool {
		return count(got) >= need
	})
	if count(replies) >= need {
		return nil
	}
	return fmt.Errorf("%w: %d/%d accepted at %v", ErrNoQuorum, count(replies), len(acceptors), bal)
}

// learn asks the acceptors whether the outcome is already decided.
func (m *Manager) learn(tid types.TransID, acceptors []types.NodeID) (Value, bool) {
	replies := m.collect(tid, acceptors, &dgram{op: opQuery}, opStatus, func(got map[types.NodeID]*dgram) bool {
		for _, r := range got {
			if r.flags&fDecided != 0 {
				return true
			}
		}
		return false
	})
	for _, r := range replies {
		if r.flags&fDecided != 0 {
			return r.val, true
		}
	}
	return Value{}, false
}

// collect sends req to every peer and gathers one reply (kind replyOp)
// per peer, retransmitting at the reply timeout, until done reports the
// round can stop, every peer has replied, or the overall deadline passes.
// The first transmission is charged as a real datagram; retransmits are
// free, mirroring txn's accounting. Each round gets a fresh nonce that
// acceptors echo in replies: the waiter key includes it, so a stale reply
// from an earlier round cannot mark a peer as answered, and concurrent
// rounds for the same transaction (the coordinator's DecideCommit racing
// the orphan sweeper's ResolveInDoubt) never share a channel.
func (m *Manager) collect(tid types.TransID, peers []types.NodeID, req *dgram, replyOp byte, done func(map[types.NodeID]*dgram) bool) map[types.NodeID]*dgram {
	timeout, retries := m.config()
	m.mu.Lock()
	m.nonceCtr++
	req.nonce = m.nonceCtr
	m.mu.Unlock()
	key := waitKey{tid: tid, op: replyOp, nonce: req.nonce}
	ch := make(chan reply, len(peers)*(retries+2))
	m.mu.Lock()
	m.waiters[key] = ch
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		if m.waiters[key] == ch {
			delete(m.waiters, key)
		}
		m.mu.Unlock()
	}()
	payload := encodeMsg(req)
	got := make(map[types.NodeID]*dgram, len(peers))
	deadline := time.Now().Add(time.Duration(retries+1) * timeout)
	for attempt := 0; ; attempt++ {
		for _, p := range peers {
			if _, ok := got[p]; ok {
				continue
			}
			charge := 0.0
			if attempt == 0 {
				charge = 1
			}
			m.sendPayload(p, tid, payload, charge)
		}
		tick := time.Now().Add(timeout)
		if tick.After(deadline) {
			tick = deadline
		}
		for len(got) < len(peers) {
			wait := time.Until(tick)
			if wait <= 0 {
				break
			}
			select {
			case r := <-ch:
				if r.d.op == replyOp {
					got[r.from] = r.d
				}
				if done != nil && done(got) {
					return got
				}
			case <-time.After(wait):
			}
			if time.Until(tick) <= 0 {
				break
			}
		}
		if len(got) == len(peers) || (done != nil && done(got)) || !time.Now().Before(deadline) {
			return got
		}
	}
}

// broadcast sends one best-effort datagram to every peer.
func (m *Manager) broadcast(tid types.TransID, d *dgram, peers []types.NodeID) {
	payload := encodeMsg(d)
	for _, p := range peers {
		m.sendPayload(p, tid, payload, 1)
	}
}

func (m *Manager) send(peer types.NodeID, tid types.TransID, d *dgram, charge float64) {
	m.sendPayload(peer, tid, encodeMsg(d), charge)
}

// sendPayload delivers one acp datagram. Messages to this node short-
// circuit straight into the handler: a node is routinely both proposer
// and acceptor, and the loopback must work even when the transport has no
// self-addressed path. Loopback carries no datagram charge.
func (m *Manager) sendPayload(peer types.NodeID, tid types.TransID, payload []byte, charge float64) {
	if peer == m.node {
		_, _ = m.handle(m.node, tid, payload)
		return
	}
	if m.cm != nil {
		_ = m.cm.SendDatagram(peer, Service, tid, payload, charge)
	}
}

// --- Acceptor / handler ------------------------------------------------------

// handle is the CM dispatch entry for the acp service.
func (m *Manager) handle(from types.NodeID, tid types.TransID, payload []byte) ([]byte, error) {
	d, err := decodeMsg(payload)
	if err != nil {
		m.tr.Count("acp.bad_message", 1)
		return nil, nil // datagram service: drop, never error the transport
	}
	switch d.op {
	case opP1a:
		m.onP1a(from, tid, d)
	case opP2a:
		m.onP2a(from, tid, d)
	case opDecide:
		m.onDecide(tid, d)
	case opQuery:
		m.onQuery(from, tid, d)
	case opForget:
		m.onForget(tid)
	case opP1b, opP2b, opStatus:
		m.route(from, tid, d)
	}
	return nil, nil
}

// route hands a proposer-bound reply to the waiting collect round. The
// key includes the echoed nonce, so replies to abandoned or concurrent
// rounds find no waiter and are dropped.
func (m *Manager) route(from types.NodeID, tid types.TransID, d *dgram) {
	m.mu.Lock()
	ch := m.waiters[waitKey{tid: tid, op: d.op, nonce: d.nonce}]
	m.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- reply{from: from, d: d}:
	default:
	}
}

// entryLocked returns (creating if needed) the state for tid. Caller
// holds m.mu. Past the table bound the oldest decided entry whose
// decision has aged past evictTTL is evicted; a decided entry that was
// never Forgotten is re-logged before it is dropped (so a restart still
// answers for it) and the drop is surfaced loudly — if every acceptor
// sheds such an entry, a still-prepared participant's recovery ballot
// would conclude Abort for a transaction the cluster committed. With no
// TTL-eligible victim the table simply exceeds the bound.
func (m *Manager) entryLocked(tid types.TransID) *entry {
	if e, ok := m.entries[tid]; ok {
		return e
	}
	if len(m.entries) >= maxEntries {
		var victim types.TransID
		var victimE *entry
		var oldest uint64 = ^uint64(0)
		for t, e := range m.entries {
			if e.decided && e.stamp < oldest && time.Since(e.decidedAt) > evictTTL {
				victim, victimE, oldest = t, e, e.stamp
			}
		}
		if victimE != nil {
			delete(m.entries, victim)
			state := appendEntryState(nil, victim, victimE)
			// Unforced and off this goroutine: the entry was already lazily
			// logged at decide time, this write only refreshes it against
			// checkpoint truncation (checkpoints snapshot the in-memory
			// table, which no longer holds it).
			go m.persist(state, false)
			m.tr.Count("acp.evicted_unforgotten", 1)
		} else {
			m.tr.Count("acp.table_overflow", 1)
		}
	}
	m.stamp++
	e := &entry{stamp: m.stamp}
	m.entries[tid] = e
	return e
}

// persist force-logs a snapshot of e taken under m.mu. It is called with
// the lock released — acceptor state is snapshot-encoded under the lock
// and written outside it, so acp.Manager.mu never nests over the
// recovery/WAL stack. Returns false if the state could not be made
// durable, in which case the caller must not reply: volatile state may
// then be *stricter* than disk, which is safe precisely because no
// proposer was told.
func (m *Manager) persist(state []byte, force bool) bool {
	m.mu.Lock()
	logger := m.logger
	m.mu.Unlock()
	if logger == nil {
		return true
	}
	if err := logger.LogACP(state, force); err != nil {
		m.tr.Count("acp.log_failure", 1)
		return false
	}
	return true
}

// onP1a: phase 1a prepare(bal). Promise if bal is the highest seen, and
// report any previously accepted value; reply with our promised ballot
// either way so a rejected proposer learns what to beat. Decided entries
// short-circuit: consensus is over, here is the answer.
func (m *Manager) onP1a(from types.NodeID, tid types.TransID, d *dgram) {
	m.mu.Lock()
	e := m.entryLocked(tid)
	if e.decided {
		rep := &dgram{op: opP1b, flags: fDecided, nonce: d.nonce, bal: d.bal, val: e.dval}
		m.mu.Unlock()
		m.send(from, tid, rep, 0)
		return
	}
	if d.bal.Less(e.promised) {
		rep := &dgram{op: opP1b, nonce: d.nonce, bal: e.promised}
		m.mu.Unlock()
		m.tr.Count("acp.reject", 1)
		m.send(from, tid, rep, 0)
		return
	}
	needLog := e.promised.Less(d.bal)
	e.promised = d.bal
	rep := &dgram{op: opP1b, nonce: d.nonce, bal: d.bal}
	if e.accepted {
		rep.flags |= fAccepted
		rep.abal = e.abal
		rep.val = e.aval
	}
	var state []byte
	if needLog {
		state = appendEntryState(nil, tid, e)
	}
	m.mu.Unlock()
	if needLog && !m.persist(state, true) {
		return
	}
	m.tr.Count("acp.promise", 1)
	m.send(from, tid, rep, 0)
}

// onP2a: phase 2a accept?(bal, val). Accept unless a higher ballot was
// promised. The acceptance is forced to the log before the ack: an acked
// acceptance must survive this node's crash, that is the whole point.
func (m *Manager) onP2a(from types.NodeID, tid types.TransID, d *dgram) {
	m.mu.Lock()
	e := m.entryLocked(tid)
	if d.bal.Less(e.promised) {
		rep := &dgram{op: opP2b, nonce: d.nonce, bal: e.promised}
		m.mu.Unlock()
		m.tr.Count("acp.reject", 1)
		m.send(from, tid, rep, 0)
		return
	}
	needLog := !e.accepted || e.abal.Less(d.bal) || e.promised.Less(d.bal)
	e.promised = d.bal
	e.accepted = true
	e.abal = d.bal
	e.aval = d.val
	var state []byte
	if needLog {
		state = appendEntryState(nil, tid, e)
	}
	m.mu.Unlock()
	if needLog && !m.persist(state, true) {
		return
	}
	m.tr.Count("acp.accept", 1)
	m.send(from, tid, &dgram{op: opP2b, flags: fOK, nonce: d.nonce, bal: d.bal}, 0)
}

// onDecide records the decided value. Logged lazily: losing it costs a
// re-learn or one recovery ballot, never safety.
func (m *Manager) onDecide(tid types.TransID, d *dgram) {
	m.mu.Lock()
	e := m.entryLocked(tid)
	if e.decided {
		m.mu.Unlock()
		return
	}
	e.decided = true
	e.dval = d.val
	e.decidedAt = time.Now()
	state := appendEntryState(nil, tid, e)
	m.mu.Unlock()
	m.persist(state, false)
	m.tr.Count("acp.decide", 1)
}

// onQuery answers a learner: the decided value if known, else "unknown".
// Crucially there is no presumed abort here — an acceptor that has not
// decided says so, and only a recovery ballot may conclude Aborted.
func (m *Manager) onQuery(from types.NodeID, tid types.TransID, d *dgram) {
	m.mu.Lock()
	e, ok := m.entries[tid]
	rep := &dgram{op: opStatus, nonce: d.nonce}
	if ok && e.decided {
		rep.flags = fDecided
		rep.val = e.dval
	}
	m.mu.Unlock()
	m.send(from, tid, rep, 0)
}

// onForget drops a decided entry: every participant has durably applied
// the outcome. Undecided entries are kept — a Forget can only legally
// chase a decision, so one without is stale or hostile.
func (m *Manager) onForget(tid types.TransID) {
	m.mu.Lock()
	if e, ok := m.entries[tid]; ok && e.decided {
		delete(m.entries, tid)
	}
	m.mu.Unlock()
	m.tr.Count("acp.forget", 1)
}

// --- Durability: checkpoint + restore ---------------------------------------

// CheckpointState snapshots the acceptor table for a checkpoint record.
// Entries are packed into one blob up to limit bytes, undecided entries
// first (they are the safety-critical ones and the checkpoint must not
// strand them behind the log's low-water mark); entries that do not fit
// are returned individually for the caller to re-log as RecACP records
// after the checkpoint.
func (m *Manager) CheckpointState(limit int) (blob []byte, overflow [][]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The proposer ballot counter rides first: it must survive reclamation
	// of the RecACP records that originally forced it, or a restarted node
	// could reuse a ballot number.
	if m.balCtr > 0 {
		enc := appendBalCtrState(nil, m.balCtr)
		if len(enc) <= limit {
			blob = append(blob, enc...)
		} else {
			overflow = append(overflow, enc)
		}
	}
	type kv struct {
		tid types.TransID
		e   *entry
	}
	all := make([]kv, 0, len(m.entries))
	for tid, e := range m.entries {
		all = append(all, kv{tid, e})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].e.decided != all[j].e.decided {
			return !all[i].e.decided
		}
		return all[i].e.stamp < all[j].e.stamp
	})
	for _, it := range all {
		enc := appendEntryState(nil, it.tid, it.e)
		if len(blob)+len(enc) <= limit {
			blob = append(blob, enc...)
		} else {
			overflow = append(overflow, enc)
		}
	}
	return blob, overflow
}

// RestoreState replays a checkpoint blob: a concatenation of entry and
// ballot-counter encodings, merged in order-insensitive fashion with
// whatever RecACP records have already been applied.
func (m *Manager) RestoreState(blob []byte) {
	for len(blob) > 0 {
		if n, rest, ok := takeBalCtrState(blob); ok {
			m.restoreBalCtr(n)
			blob = rest
			continue
		}
		tid, e, rest, err := takeEntryState(blob)
		if err != nil {
			m.tr.Count("acp.restore.corrupt", 1)
			return
		}
		m.merge(tid, e)
		blob = rest
	}
}

// RestoreRecord replays one RecACP record body.
func (m *Manager) RestoreRecord(body []byte) {
	if n, rest, ok := takeBalCtrState(body); ok {
		if len(rest) != 0 {
			m.tr.Count("acp.restore.corrupt", 1)
			return
		}
		m.restoreBalCtr(n)
		return
	}
	tid, e, rest, err := takeEntryState(body)
	if err != nil || len(rest) != 0 {
		m.tr.Count("acp.restore.corrupt", 1)
		return
	}
	m.merge(tid, e)
}

// restoreBalCtr folds a durably recorded ballot counter back in; the max
// wins, so replay order is irrelevant.
func (m *Manager) restoreBalCtr(n uint32) {
	m.mu.Lock()
	if m.balCtr < n {
		m.balCtr = n
	}
	m.mu.Unlock()
}

// merge folds a restored entry into the table. The rules make replay
// order irrelevant: decided is sticky, promises take the max, and the
// accepted value at the highest ballot wins — exactly the monotone facts
// the protocol itself maintains.
func (m *Manager) merge(tid types.TransID, in *entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entryLocked(tid)
	if in.decided && !e.decided {
		e.decided = true
		e.dval = in.dval
		e.decidedAt = time.Now()
	}
	if e.promised.Less(in.promised) {
		e.promised = in.promised
	}
	if in.accepted && (!e.accepted || e.abal.Less(in.abal)) {
		e.accepted = true
		e.abal = in.abal
		e.aval = in.aval
	}
}

// --- Inspection (tabsctl acp) -------------------------------------------------

// InstanceState is one transaction's acceptor state, for reports.
type InstanceState struct {
	TID        string   `json:"tid"`
	Promised   string   `json:"promised"`
	Accepted   bool     `json:"accepted"`
	AcceptedAt string   `json:"accepted_at,omitempty"`
	Decided    bool     `json:"decided"`
	Outcome    string   `json:"outcome,omitempty"`
	Members    []string `json:"members,omitempty"`
}

// Snapshot returns the acceptor table in stamp order.
func (m *Manager) Snapshot() []InstanceState {
	m.mu.Lock()
	defer m.mu.Unlock()
	type kv struct {
		tid types.TransID
		e   *entry
	}
	all := make([]kv, 0, len(m.entries))
	for tid, e := range m.entries {
		all = append(all, kv{tid, e})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].e.stamp < all[j].e.stamp })
	out := make([]InstanceState, 0, len(all))
	for _, it := range all {
		is := InstanceState{
			TID:      fmt.Sprintf("%s/%d", it.tid.Node, it.tid.Seq),
			Promised: it.e.promised.String(),
			Accepted: it.e.accepted,
			Decided:  it.e.decided,
		}
		val := it.e.aval
		if it.e.accepted {
			is.AcceptedAt = it.e.abal.String()
		}
		if it.e.decided {
			val = it.e.dval
			is.Outcome = val.Outcome().String()
		}
		for _, mem := range val.Members {
			vote := "prepared"
			if mem.Vote != VotePrepared {
				vote = "aborted"
			}
			is.Members = append(is.Members, fmt.Sprintf("%s=%s", mem.Node, vote))
		}
		out = append(out, is)
	}
	return out
}

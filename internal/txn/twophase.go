package txn

import (
	"encoding/binary"
	"fmt"
	"time"

	"tabs/internal/acp"
	"tabs/internal/comm"
	"tabs/internal/simclock"
	"tabs/internal/trace"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// Datagram message kinds for the tree-structured two-phase commit. The
// payload is two bytes: kind and (for status replies) a status code. A
// prepare sent under a replicated commit protocol appends the acceptor
// set (uint16 count, then length-prefixed node names) so every
// participant's prepare record names the quorum it must resolve against.
const (
	dgPrepare      uint8 = iota + 1 // parent -> child: phase 1
	dgVoteCommit                    // child -> parent: prepared
	dgVoteReadOnly                  // child -> parent: no updates, done
	dgVoteAbort                     // child -> parent: cannot commit
	dgCommit                        // parent -> child: phase 2 commit
	dgAbort                         // parent -> child: abort
	dgAck                           // child -> parent: phase 2 complete
	dgStatusQ                       // child -> coordinator: in-doubt query
	dgStatusR                       // coordinator -> child: outcome
)

// Waiter classes for reply correlation.
const (
	clsVote uint8 = iota + 1
	clsAck
	clsStatus
)

type dgMsg struct {
	kind      uint8
	status    types.Status
	from      types.NodeID
	acceptors []types.NodeID // dgPrepare only; nil under plain 2PC
}

func encodeDG(kind uint8, st types.Status) []byte {
	return []byte{kind, byte(st)}
}

// acceptorTail encodes the acceptor set appended to a dgPrepare payload;
// nil when the set is empty, so plain 2PC datagrams are byte-identical to
// the pre-acp wire format.
func acceptorTail(acceptors []types.NodeID) []byte {
	if len(acceptors) == 0 {
		return nil
	}
	b := binary.BigEndian.AppendUint16(nil, uint16(len(acceptors)))
	for _, a := range acceptors {
		b = comm.AppendLenString(b, string(a))
	}
	return b
}

// dgName names a datagram kind for trace spans.
func dgName(kind uint8) string {
	switch kind {
	case dgPrepare:
		return "prepare"
	case dgCommit:
		return "commit"
	case dgAbort:
		return "abort"
	case dgStatusQ:
		return "statusq"
	default:
		return fmt.Sprintf("kind%d", kind)
	}
}

func decodeDG(from types.NodeID, payload []byte) (dgMsg, bool) {
	if len(payload) < 2 {
		return dgMsg{}, false
	}
	msg := dgMsg{kind: payload[0], status: types.Status(payload[1]), from: from}
	rest := payload[2:]
	if msg.kind == dgPrepare && len(rest) > 0 {
		if len(rest) < 2 {
			return dgMsg{}, false
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		for i := 0; i < n; i++ {
			name, r, err := comm.TakeLenString(rest)
			if err != nil {
				return dgMsg{}, false
			}
			msg.acceptors = append(msg.acceptors, types.NodeID(name))
			rest = r
		}
	}
	if len(rest) != 0 {
		return dgMsg{}, false
	}
	return msg, true
}

// handleDatagram is the Communication Manager dispatch entry for the txn
// service. It runs on the delivery goroutine; the prepare/commit/abort
// flows may block (they message further nodes), which is safe because
// every delivery has its own goroutine.
func (m *Manager) handleDatagram(from types.NodeID, tid types.TransID, payload []byte) ([]byte, error) {
	msg, ok := decodeDG(from, payload)
	if !ok {
		return nil, fmt.Errorf("txn: malformed commit datagram from %s", from)
	}
	switch msg.kind {
	case dgVoteCommit, dgVoteReadOnly, dgVoteAbort:
		m.route(waitKey{tid: tid.TopLevel(), from: from, kind: clsVote}, msg)
	case dgAck:
		m.route(waitKey{tid: tid.TopLevel(), from: from, kind: clsAck}, msg)
	case dgStatusR:
		m.route(waitKey{tid: tid.TopLevel(), from: from, kind: clsStatus}, msg)
	case dgPrepare:
		m.participantPrepare(from, tid.TopLevel(), msg.acceptors)
	case dgCommit:
		m.participantCommit(from, tid.TopLevel())
	case dgAbort:
		m.participantAbort(from, tid.TopLevel())
	case dgStatusQ:
		m.answerStatusQuery(from, tid.TopLevel())
	}
	return nil, nil
}

// route hands an inbound reply to its registered waiter, dropping
// duplicates (at-most-once at the protocol level: retransmitted votes and
// acks are harmless).
func (m *Manager) route(k waitKey, msg dgMsg) {
	m.mu.Lock()
	ch := m.waiters[k]
	m.mu.Unlock()
	if ch != nil {
		select {
		case ch <- msg:
		default:
		}
	}
}

// await registers a waiter for one reply.
func (m *Manager) await(k waitKey) chan dgMsg {
	ch := make(chan dgMsg, 1)
	m.mu.Lock()
	m.waiters[k] = ch
	m.mu.Unlock()
	return ch
}

func (m *Manager) unawait(k waitKey) {
	m.mu.Lock()
	delete(m.waiters, k)
	m.mu.Unlock()
}

// sendRound transmits kind (payload extended by tail, which may be nil) to
// every child, charging the paper's longest-path datagram fractions: the
// first send is a full datagram, the rest — transmitted in parallel — one
// half each (Table 5-3 notes).
func (m *Manager) sendRound(tid types.TransID, children []types.NodeID, kind uint8, tail []byte) {
	payload := append(encodeDG(kind, types.StatusUnknown), tail...)
	for i, c := range children {
		charge := 1.0
		if i > 0 {
			charge = 0.5
		}
		_ = m.cm.SendDatagram(c, Service, tid, payload, charge)
	}
}

// collectRound sends kind to children and gathers one reply of class cls
// from each, retransmitting to laggards. Missing replies after all retries
// are reported with kind 0.
func (m *Manager) collectRound(tid types.TransID, children []types.NodeID, kind uint8, cls uint8, tail []byte) map[types.NodeID]dgMsg {
	results := make(map[types.NodeID]dgMsg, len(children))
	chans := make(map[types.NodeID]chan dgMsg, len(children))
	for _, c := range children {
		chans[c] = m.await(waitKey{tid: tid, from: c, kind: cls})
	}
	defer func() {
		for _, c := range children {
			m.unawait(waitKey{tid: tid, from: c, kind: cls})
		}
	}()
	sp := m.tr.Begin("txn", "round."+dgName(kind)).SetTID(tid).Annotatef("children=%d", len(children))
	m.sendRound(tid, children, kind, tail)
	vote, attempts, _ := m.timing()
	if attempts < 1 {
		attempts = 1
	}
	for try := 0; try < attempts; try++ {
		// One absolute deadline per round: a time.After channel fires
		// once, so sharing it across the per-child selects would leave
		// every child after the first timing-out child blocked forever.
		deadline := time.Now().Add(vote)
		for _, c := range children {
			if _, done := results[c]; done {
				continue
			}
			remaining := time.Until(deadline)
			if remaining <= 0 {
				// The round has expired; poll without blocking.
				select {
				case msg := <-chans[c]:
					results[c] = msg
				default:
				}
				continue
			}
			select {
			case msg := <-chans[c]:
				results[c] = msg
			case <-time.After(remaining):
			}
		}
		if len(results) == len(children) {
			break
		}
		// Retransmit to children that have not answered.
		sp.Annotatef("retry=%d missing=%d", try+1, len(children)-len(results))
		m.tr.Count("txn.round.retransmits", 1)
		for _, c := range children {
			if _, done := results[c]; !done {
				_ = m.cm.SendDatagram(c, Service, tid, append(encodeDG(kind, types.StatusUnknown), tail...), 0)
			}
		}
	}
	// One datagram arrival on the longest path covers the whole reply
	// round (replies travel in parallel).
	if m.rec != nil && len(children) > 0 {
		m.rec.RecordN(simclock.Datagram, 1)
	}
	if len(results) < len(children) {
		sp.Annotatef("unanswered=%d", len(children)-len(results))
	}
	sp.End()
	return results
}

// localWrote reports whether any local work of the transaction reached the
// log; if not, the read-only optimization applies: no commit record, no
// force (Table 5-3 shows no Stable Storage Write for read-only commits).
func (m *Manager) localWrote(lt *localTrans) bool {
	for _, tid := range localTIDs(lt) {
		if m.rm.HasLogged(tid) {
			return true
		}
	}
	return false
}

// autoCommitSubs marks still-active subtransactions committed: "when a
// parent transaction commits or aborts, its subtransactions are committed
// or aborted as well" (§3.2.3).
func (m *Manager) autoCommitSubs(lt *localTrans) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for sub, st := range lt.subs {
		if st == types.StatusActive {
			lt.subs[sub] = types.StatusCommitted
		}
	}
}

// notifyCommit tells every joined server to finalize and unlock.
func (m *Manager) notifyCommit(lt *localTrans) {
	for _, p := range participants(lt) {
		m.recordMsgs(1)
		p.CommitTrans(lt.top)
	}
}

// commitTree runs the commit protocol with this node as (root)
// coordinator.
func (m *Manager) commitTree(lt *localTrans) (bool, error) {
	m.mu.Lock()
	if lt.state != stActive {
		st := lt.state
		m.mu.Unlock()
		return st == stCommitted, fmt.Errorf("%w: %v", ErrNotActive, lt.top)
	}
	lt.state = stPreparing
	m.mu.Unlock()
	m.autoCommitSubs(lt)

	sp := m.tr.Begin("txn", "commit").SetTID(lt.top)
	var children []types.NodeID
	if m.cm != nil {
		_, _, children = m.cm.Tree(lt.top)
	}
	sp.Annotatef("children=%d", len(children))
	// The commit-tree fan-out distribution: with sharded placement it
	// shows how many shard homes a transaction actually touched (the
	// child set is built from session traffic, never from the placement).
	m.tr.Observe("txn.commit.children", float64(len(children)))
	// Snapshot the commit protocol and its acceptor set once: the same set
	// rides every prepare datagram and lands in every prepare record, so
	// all participants of this transaction resolve against one quorum even
	// if the configured set changes mid-flight.
	prot := m.getProtocol()
	var acceptors []types.NodeID
	if prot != nil {
		acceptors = prot.Acceptors()
	}
	var writers []types.NodeID
	if len(children) > 0 {
		votes := m.collectRound(lt.top, children, dgPrepare, clsVote, acceptorTail(acceptors))
		abort := false
		for _, c := range children {
			v, ok := votes[c]
			if !ok || v.kind == dgVoteAbort {
				abort = true
				continue
			}
			if v.kind == dgVoteCommit {
				writers = append(writers, c)
			}
		}
		if abort {
			sp.Annotate("outcome=abort").End()
			if err := m.abortTree(lt); err != nil {
				return false, err
			}
			return false, nil
		}
	}

	wrote := m.localWrote(lt)
	if !wrote && len(writers) == 0 {
		// Entirely read-only: nothing to log, nothing to force.
		m.mu.Lock()
		lt.state = stCommitted
		m.mu.Unlock()
		m.notifyCommit(lt)
		m.finishLocal(lt, types.StatusCommitted)
		m.tr.Count("txn.commits.readonly", 1)
		sp.Annotate("outcome=committed_readonly").End()
		return true, nil
	}

	m.fireHook(lt.top, "decide")

	if prot != nil {
		return m.commitReplicated(lt, sp, prot, acceptors, writers)
	}

	// The commit record under the root TID decides the whole tree; it is
	// forced before any effect is exposed (§2.1.3). Under heavy concurrent
	// commit traffic this force is where group commit amortizes: many
	// committing trees share one log write (wal.Log's leader/follower
	// batching).
	if err := m.rm.LogCommit(lt.top); err != nil {
		sp.Annotate("outcome=abort").EndErr(err)
		if aerr := m.abortTree(lt); aerr != nil {
			return false, fmt.Errorf("txn: commit force failed (%v); abort also failed: %w", err, aerr)
		}
		return false, nil
	}
	m.fireHook(lt.top, "decided")
	m.mu.Lock()
	lt.state = stCommitted
	m.mu.Unlock()
	if len(writers) > 0 {
		m.collectRound(lt.top, writers, dgCommit, clsAck, nil)
	}
	m.notifyCommit(lt)
	m.finishLocal(lt, types.StatusCommitted)
	m.tr.Count("txn.commits", 1)
	sp.Annotate("outcome=committed").End()
	return true, nil
}

// commitReplicated finishes commitTree under a replicated commit protocol
// (Paxos Commit). The decision point moves off this node: the root first
// forces its own prepare record naming the acceptor quorum — making its
// local effects durable and telling a restarted root to resolve against
// the quorum instead of presuming abort — then asks the protocol to
// establish the Committed outcome at the acceptors. From the moment
// DecideCommit is attempted the root may no longer unilaterally abort: an
// error leaves the transaction prepared in doubt (a competing recovery
// proposer may have decided either way) and the in-doubt machinery
// resolves it, exactly as for a participant.
func (m *Manager) commitReplicated(lt *localTrans, sp *trace.ActiveSpan, prot acp.Protocol, acceptors, writers []types.NodeID) (bool, error) {
	rootPrep := &wal.PrepareBody{Children: writers, Acceptors: acceptors}
	if err := m.rm.LogPrepare(lt.top, rootPrep); err != nil {
		// Nothing proposed yet: aborting is still this node's privilege.
		sp.Annotate("outcome=abort").EndErr(err)
		if aerr := m.abortTree(lt); aerr != nil {
			return false, fmt.Errorf("txn: root prepare failed (%v); abort also failed: %w", err, aerr)
		}
		return false, nil
	}
	m.mu.Lock()
	lt.state = stPrepared
	lt.prep = rootPrep
	m.mu.Unlock()

	members := writers
	if m.localWrote(lt) {
		members = append([]types.NodeID{m.node}, writers...)
	}
	if err := prot.DecideCommit(lt.top, members); err != nil {
		// In doubt, not aborted: the quorum may hold a decision this node
		// could not learn. Stay prepared, let the resolver and the orphan
		// sweeper consult the acceptors, and surface ErrInDoubt so the
		// application polls Status instead of assuming an outcome.
		m.mu.Lock()
		lt.touch()
		m.mu.Unlock()
		m.tr.Count("txn.commit.indoubt", 1)
		sp.Annotate("outcome=indoubt").EndErr(err)
		go m.resolveWhenStuck(lt, "")
		return false, fmt.Errorf("%w: %v", ErrInDoubt, err)
	}
	m.fireHook(lt.top, "decided")

	// The outcome is durable at the acceptors; the local commit record
	// (forced, closing this node's in-doubt window) follows it. If the
	// force fails the transaction is still committed cluster-wide — fall
	// back to the in-doubt path, which re-learns Committed and retries.
	if err := m.rm.LogCommit(lt.top); err != nil {
		m.mu.Lock()
		lt.touch()
		m.mu.Unlock()
		m.tr.Count("txn.commit.indoubt", 1)
		sp.Annotate("outcome=indoubt_logfail").EndErr(err)
		go m.resolveWhenStuck(lt, "")
		return false, fmt.Errorf("%w: %v", ErrInDoubt, err)
	}
	m.mu.Lock()
	lt.state = stCommitted
	m.mu.Unlock()
	allAcked := true
	if len(writers) > 0 {
		acks := m.collectRound(lt.top, writers, dgCommit, clsAck, nil)
		allAcked = len(acks) == len(writers)
	}
	m.notifyCommit(lt)
	m.finishLocal(lt, types.StatusCommitted)
	if allAcked {
		// Every writer acked — and an ack implies its forced commit record,
		// closing its in-doubt window — so the acceptors may discard this
		// transaction's decision state.
		prot.Finished(lt.top, acceptors)
	} else {
		// A writer never acked: it may be partitioned through the whole
		// retry window and still needs to learn the outcome from the
		// acceptors. Telling them to forget now would make its recovery
		// ballot conclude Abort for a committed transaction. Leave the
		// entries in place; the acceptor table's TTL-gated eviction is the
		// backstop if the laggard never returns.
		m.tr.Count("txn.finished.deferred", 1)
	}
	m.tr.Count("txn.commits", 1)
	sp.Annotate("outcome=committed").End()
	return true, nil
}

// abortTree aborts the local portion of the transaction and propagates
// the abort to every child subtree.
//
// The undo phase may fail partway (a log or disk error inside rm.Abort);
// the transaction is then left in state stAborted with undone unset, still
// registered in m.trans, and the orphan sweeper retries the whole routine.
// That retry is safe because rm.Abort's undo is idempotent — CLRs chain
// into the transaction's backchain, so a re-undo skips every record the
// first attempt already compensated — and server AbortTrans / lock
// releases are no-ops the second time. Before this restructure a failed
// undo flipped the state to stAborted and every later call returned
// immediately, stranding the transaction's locks forever.
func (m *Manager) abortTree(lt *localTrans) error {
	m.mu.Lock()
	if (lt.state == stAborted && lt.undone) || lt.aborting {
		m.mu.Unlock()
		return nil
	}
	if lt.state == stCommitted {
		// Once this node committed, the transaction IS committed — the
		// decision that drove the commit was authoritative (forced commit
		// record, or quorum resolution). A late Aborted outcome can still
		// arrive here: two resolvers (the orphan sweeper and the one-shot
		// resolveWhenStuck goroutine) may race on the same in-doubt
		// transaction, the first deciding Commit, applying it, and telling
		// the acceptors to forget — after which the second's recovery
		// ballot runs against blank acceptors and concludes the Aborted
		// sentinel. That verdict is stale, not authoritative; honoring it
		// would flip the recorded outcome to Aborted while the committed
		// effects stand (the undo chain is closed), breaking atomicity.
		m.mu.Unlock()
		m.tr.Count("txn.abort.refused_committed", 1)
		return nil
	}
	if lt.state == stPrepared && lt.prep != nil && len(lt.prep.Acceptors) > 0 && !lt.resolvedAbort {
		// Prepared under a replicated protocol: the decision lives at the
		// acceptor quorum, so presumed abort is unsound here. Only an
		// authoritative Aborted outcome (coordinator phase-2 instruction
		// or quorum resolution, both of which set resolvedAbort) may tear
		// this transaction down.
		m.mu.Unlock()
		m.tr.Count("txn.abort.refused_indoubt", 1)
		return ErrInDoubt
	}
	retry := lt.state == stAborted // a previous undo failed partway
	lt.state = stAborted
	lt.aborting = true
	sp := m.tr.Begin("txn", "abort").SetTID(lt.top)
	if retry {
		sp.Annotate("retry=true")
	}
	doomed := make([]types.TransID, 0, len(lt.subs)+1)
	for sub, st := range lt.subs {
		// On retry, re-doom every sub: the first attempt already marked
		// them aborted, but some may not have been undone yet.
		if st != types.StatusAborted || retry {
			doomed = append(doomed, sub)
			lt.subs[sub] = types.StatusAborted
		}
	}
	doomed = append(doomed, lt.top)
	servers := participants(lt)
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		lt.aborting = false
		m.mu.Unlock()
	}()

	var children []types.NodeID
	if m.cm != nil {
		_, _, children = m.cm.Tree(lt.top)
	}
	for _, tid := range doomed {
		if err := m.rm.Abort(tid); err != nil {
			m.tr.Count("txn.abort.incomplete", 1)
			sp.EndErr(err)
			return err
		}
		for _, p := range servers {
			m.recordMsgs(1)
			p.AbortTrans(tid)
		}
	}
	m.mu.Lock()
	lt.undone = true
	m.mu.Unlock()
	if len(children) > 0 {
		m.collectRound(lt.top, children, dgAbort, clsAck, nil)
	}
	m.finishLocal(lt, types.StatusAborted)
	m.tr.Count("txn.aborts", 1)
	sp.End()
	return nil
}

// participantPrepare handles phase 1 at a non-root node: recursively
// prepare the subtree below, then prepare locally and vote. acceptors is
// the replica set from the prepare datagram (empty under plain 2PC); it is
// relayed to the subtree and recorded in the prepare record so in-doubt
// resolution — before or after a crash — knows which quorum decides.
func (m *Manager) participantPrepare(parent types.NodeID, top types.TransID, acceptors []types.NodeID) {
	m.mu.Lock()
	lt := m.trans[top]
	if lt == nil {
		// No state: either we never worked for this transaction or we
		// already finished. Answer from the outcomes table.
		st := m.outcomes[top]
		m.mu.Unlock()
		switch st {
		case types.StatusCommitted:
			// Read-only participant that already finished.
			_ = m.cm.SendDatagram(parent, Service, top, encodeDG(dgVoteReadOnly, st), 0)
		default:
			_ = m.cm.SendDatagram(parent, Service, top, encodeDG(dgVoteAbort, st), 0)
		}
		return
	}
	switch lt.state {
	case stPreparing:
		m.mu.Unlock()
		return // duplicate prepare while the first is in progress
	case stPrepared:
		m.mu.Unlock()
		_ = m.cm.SendDatagram(parent, Service, top, encodeDG(dgVoteCommit, types.StatusUnknown), 0)
		return
	case stAborted:
		m.mu.Unlock()
		_ = m.cm.SendDatagram(parent, Service, top, encodeDG(dgVoteAbort, types.StatusUnknown), 0)
		return
	case stCommitted:
		m.mu.Unlock()
		_ = m.cm.SendDatagram(parent, Service, top, encodeDG(dgVoteReadOnly, types.StatusUnknown), 0)
		return
	}
	lt.state = stPreparing
	m.mu.Unlock()
	m.autoCommitSubs(lt)

	sp := m.tr.Begin("txn", "prepare").SetTID(top).Annotatef("parent=%s", parent)
	vote := func(kind uint8) {
		m.tr.Begin("txn", "vote").SetTID(top).Annotatef("vote=%s", voteName(kind)).End()
		_ = m.cm.SendDatagram(parent, Service, top, encodeDG(kind, types.StatusUnknown), 0)
	}

	_, _, children := m.cm.Tree(top)
	var writers []types.NodeID
	abort := false
	if len(children) > 0 {
		votes := m.collectRound(top, children, dgPrepare, clsVote, acceptorTail(acceptors))
		for _, c := range children {
			v, ok := votes[c]
			if !ok || v.kind == dgVoteAbort {
				abort = true
				continue
			}
			if v.kind == dgVoteCommit {
				writers = append(writers, c)
			}
		}
	}
	if abort {
		_ = m.abortTree(lt)
		sp.Annotate("vote=abort").End()
		vote(dgVoteAbort)
		return
	}

	wrote := m.localWrote(lt)
	if !wrote && len(writers) == 0 {
		// Read-only subtree: finished now, drops out of phase 2.
		m.mu.Lock()
		lt.state = stCommitted
		m.mu.Unlock()
		m.notifyCommit(lt)
		m.finishLocal(lt, types.StatusCommitted)
		sp.Annotate("vote=readonly").End()
		vote(dgVoteReadOnly)
		return
	}

	prep := &wal.PrepareBody{Parent: parent, Children: writers, Acceptors: acceptors}
	if err := m.rm.LogPrepare(top, prep); err != nil {
		_ = m.abortTree(lt)
		sp.Annotate("vote=abort").EndErr(err)
		vote(dgVoteAbort)
		return
	}
	m.mu.Lock()
	lt.state = stPrepared
	lt.prep = prep
	m.mu.Unlock()
	sp.Annotate("vote=commit").End()
	vote(dgVoteCommit)
	// In-doubt self-resolution: if the outcome never arrives (lost
	// datagrams, coordinator crash), ask the parent.
	go m.resolveWhenStuck(lt, parent)
}

// voteName names a vote datagram kind for trace spans.
func voteName(kind uint8) string {
	switch kind {
	case dgVoteCommit:
		return "commit"
	case dgVoteReadOnly:
		return "readonly"
	case dgVoteAbort:
		return "abort"
	default:
		return fmt.Sprintf("kind%d", kind)
	}
}

// participantCommit handles phase 2 at a prepared node: relay to the
// prepared children, commit locally (forced — the ack releases the
// coordinator from remembering us), unlock, ack.
func (m *Manager) participantCommit(parent types.NodeID, top types.TransID) {
	m.mu.Lock()
	lt := m.trans[top]
	if lt == nil {
		// No volatile state. Recovery restores a localTrans for every
		// transaction still prepared in the log (RestorePrepared), so no
		// state means we either already finished this transaction — a
		// retransmitted commit; re-ack so the coordinator can forget us —
		// or never prepared it and owe it no durable effects. Either way
		// acking is safe. (Before the restore fix, a participant that
		// crashed after voting would land here and ack away a commit it
		// had not applied.)
		m.mu.Unlock()
		_ = m.cm.SendDatagram(parent, Service, top, encodeDG(dgAck, types.StatusUnknown), 0)
		return
	}
	if lt.state != stPrepared {
		m.mu.Unlock()
		return
	}
	lt.state = stCommitted
	prep := lt.prep
	m.mu.Unlock()

	allAcked := true
	if prep != nil && len(prep.Children) > 0 {
		acks := m.collectRound(top, prep.Children, dgCommit, clsAck, nil)
		allAcked = len(acks) == len(prep.Children)
	}
	if err := m.rm.LogCommit(top); err != nil {
		// Forced commit record failed; stay prepared and let resolution
		// retry. Do not ack.
		m.mu.Lock()
		lt.state = stPrepared
		m.mu.Unlock()
		return
	}
	m.notifyCommit(lt)
	m.finishLocal(lt, types.StatusCommitted)
	if prep != nil && prep.Parent == "" {
		// This was the root's own prepared-in-doubt state, resolved here
		// (parent is this node or empty, never a real coordinator): no one
		// to ack, but once every child acked — each ack implying a forced
		// commit record — the acceptors may forget the decision. With a
		// laggard child outstanding the entries must stay: it still has to
		// learn the outcome from the quorum.
		if prot := m.getProtocol(); len(prep.Acceptors) > 0 && allAcked && prot != nil {
			prot.Finished(top, prep.Acceptors)
		} else if len(prep.Acceptors) > 0 {
			m.tr.Count("txn.finished.deferred", 1)
		}
		return
	}
	_ = m.cm.SendDatagram(parent, Service, top, encodeDG(dgAck, types.StatusUnknown), 0)
}

// participantAbort handles an abort instruction from the parent. The
// instruction is an authoritative outcome — under a replicated protocol
// the coordinator only sends it before proposing commit, and recovery
// proposers can then only decide abort — so it clears the in-doubt guard.
func (m *Manager) participantAbort(parent types.NodeID, top types.TransID) {
	m.mu.Lock()
	lt := m.trans[top]
	if lt != nil {
		lt.resolvedAbort = true
	}
	m.mu.Unlock()
	if lt != nil {
		_ = m.abortTree(lt)
	}
	_ = m.cm.SendDatagram(parent, Service, top, encodeDG(dgAck, types.StatusUnknown), 0)
}

// answerStatusQuery reports a transaction's outcome to an in-doubt child.
// Unknown transactions are presumed aborted: the coordinator forces its
// commit record before releasing anything, so a missing record after a
// crash proves the transaction did not commit.
func (m *Manager) answerStatusQuery(from types.NodeID, top types.TransID) {
	m.mu.Lock()
	st, known := m.outcomes[top]
	if !known {
		if lt := m.trans[top]; lt != nil {
			switch lt.state {
			case stCommitted:
				st, known = types.StatusCommitted, true
			case stAborted:
				st, known = types.StatusAborted, true
			default:
				st, known = types.StatusPrepared, true // still in progress
			}
		}
	}
	m.mu.Unlock()
	if !known {
		st = types.StatusAborted // presumed abort
	}
	if m.rec != nil {
		m.rec.Record(simclock.Datagram)
	}
	_ = m.cm.SendDatagram(from, Service, top, encodeDG(dgStatusR, st), 0)
}

// resolveWhenStuck waits for the prepared transaction to resolve; if it
// stays in doubt, it queries the parent and applies the answer.
//
// The wait is one absolute deadline — the same total grace period as the
// old fixed sleep of (retries+2)×vote — but polled with capped exponential
// backoff, so the goroutine notices a normally-delivered outcome within a
// fraction of the vote timeout instead of holding its state for the full
// worst case. Each backoff round is visible on the txn.resolve span.
func (m *Manager) resolveWhenStuck(lt *localTrans, parent types.NodeID) {
	vote, retries, _ := m.timing()
	deadline := time.Now().Add(time.Duration(retries+2) * vote)
	sp := m.tr.Begin("txn", "resolve").SetTID(lt.top).Annotatef("parent=%s", parent)
	backoff := vote / 8
	if backoff < time.Millisecond {
		backoff = time.Millisecond
	}
	for round := 1; ; round++ {
		m.mu.Lock()
		stuck := lt.state == stPrepared
		m.mu.Unlock()
		if !stuck {
			sp.Annotate("resolved=normally").End()
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		wait := backoff
		if wait > remaining {
			wait = remaining
		}
		sp.Annotatef("round=%d backoff=%s", round, wait)
		select {
		case <-time.After(wait):
		case <-m.stopSweep:
			sp.Annotate("stopped=true").End()
			return
		}
		backoff *= 2
		if backoff > vote {
			backoff = vote
		}
	}
	// Still in doubt past the deadline: resolve with whoever owns the
	// decision — the acceptor quorum named in the prepare record, or the
	// coordinator under plain 2PC.
	st := m.resolveOutcome(lt, parent)
	sp.Annotatef("queried=%v", st).End()
	switch st {
	case types.StatusCommitted:
		m.participantCommit(parent, lt.top)
	case types.StatusAborted:
		m.mu.Lock()
		lt.resolvedAbort = true
		m.mu.Unlock()
		_ = m.abortTree(lt)
	}
}

// resolveOutcome determines the outcome of a prepared in-doubt
// transaction. Transactions prepared under a replicated protocol (their
// prepare record names an acceptor set) resolve against the acceptor
// quorum, which can decide even with the coordinator permanently dead;
// everything else falls back to the paper's coordinator status query. The
// returned status keeps queryStatus semantics: StatusPrepared means "stay
// in doubt", StatusUnknown means "nobody answered".
func (m *Manager) resolveOutcome(lt *localTrans, parent types.NodeID) types.Status {
	m.mu.Lock()
	prep := lt.prep
	prot := m.protocol
	m.mu.Unlock()
	if prep != nil && len(prep.Acceptors) > 0 && prot != nil {
		return prot.ResolveInDoubt(lt.top, prep)
	}
	if parent == "" || m.cm == nil {
		return types.StatusPrepared
	}
	return m.queryStatus(lt.top, parent)
}

// queryStatus asks peer for top's outcome, with retries. It returns
// StatusPrepared when the coordinator explicitly answered "still in
// progress", and StatusUnknown when no answer arrived at all — callers
// treat those differently: a prepared participant must stay in doubt, but
// an active (never-prepared) orphan may be aborted unilaterally.
// The query runs against one absolute deadline (the old per-attempt budget,
// attempts×vote, in total) with capped exponential backoff between
// retransmissions, so an early answer returns immediately and a dead
// coordinator costs no more than before. Each retransmission round is
// annotated on the txn.statusq span.
func (m *Manager) queryStatus(top types.TransID, peer types.NodeID) types.Status {
	k := waitKey{tid: top, from: peer, kind: clsStatus}
	ch := m.await(k)
	defer m.unawait(k)
	vote, attempts, _ := m.timing()
	if attempts < 1 {
		attempts = 1
	}
	sp := m.tr.Begin("txn", "statusq").SetTID(top).Annotatef("peer=%s", peer)
	deadline := time.Now().Add(time.Duration(attempts) * vote)
	backoff := vote / 4
	if backoff < time.Millisecond {
		backoff = time.Millisecond
	}
	heard := false
	for round := 1; ; round++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		if round > 1 {
			sp.Annotatef("round=%d backoff=%s", round, backoff)
			m.tr.Count("txn.statusq.retransmits", 1)
		}
		_ = m.cm.SendDatagram(peer, Service, top, encodeDG(dgStatusQ, types.StatusUnknown), 1)
		wait := backoff
		if wait > remaining {
			wait = remaining
		}
		timer := time.NewTimer(wait)
		select {
		case msg := <-ch:
			timer.Stop()
			if msg.status == types.StatusPrepared {
				// Coordinator still deciding; pause, then ask again.
				heard = true
				select {
				case <-time.After(wait):
				case <-m.stopSweep:
					sp.Annotate("stopped=true").End()
					return types.StatusPrepared
				}
			} else {
				sp.Annotatef("status=%v", msg.status).End()
				return msg.status
			}
		case <-timer.C:
		case <-m.stopSweep:
			timer.Stop()
			sp.Annotate("stopped=true").End()
			if heard {
				return types.StatusPrepared
			}
			return types.StatusUnknown
		}
		backoff *= 2
		if backoff > vote {
			backoff = vote
		}
	}
	if heard {
		sp.Annotate("status=prepared").End()
		return types.StatusPrepared
	}
	sp.Annotate("status=unknown").End()
	return types.StatusUnknown
}

// ResolveStatus implements recovery.TransStatusSource for crash restart:
// an in-doubt prepared transaction found in the log is resolved by asking
// the parent recorded in its prepare record (§3.2.2) — or, when the record
// names an acceptor set, by the quorum, which answers even if the
// coordinator never comes back.
func (m *Manager) ResolveStatus(tid types.TransID, prep *wal.PrepareBody) types.Status {
	if prep != nil && len(prep.Acceptors) > 0 && m.cm != nil {
		if prot := m.getProtocol(); prot != nil {
			return prot.ResolveInDoubt(tid.TopLevel(), prep)
		}
	}
	if prep == nil || prep.Parent == "" || m.cm == nil {
		return types.StatusPrepared
	}
	st := m.queryStatus(tid.TopLevel(), prep.Parent)
	if st == types.StatusUnknown {
		// Unreachable coordinator: a prepared transaction must stay in
		// doubt (the 2PC blocking window the paper acknowledges).
		return types.StatusPrepared
	}
	return st
}

// RestoreTransRecord implements recovery.TransStatusSource: during the
// analysis pass the Recovery Manager passes transaction-management records
// back to the Transaction Manager (§3.2.2), which rebuilds its outcomes
// table so it can answer status queries from other nodes after a crash.
func (m *Manager) RestoreTransRecord(r *wal.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch r.Type {
	case wal.RecCommit:
		m.outcomes[r.TID.TopLevel()] = types.StatusCommitted
	case wal.RecAbort:
		if r.TID.IsTopLevel() {
			m.outcomes[r.TID] = types.StatusAborted
		}
	}
}

// Crash drops all volatile Transaction Manager state and stops the
// orphan sweeper.
func (m *Manager) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trans = make(map[types.TransID]*localTrans)
	m.outcomes = make(map[types.TransID]types.Status)
	m.waiters = make(map[waitKey]chan dgMsg)
	select {
	case <-m.stopSweep:
	default:
		close(m.stopSweep)
	}
}

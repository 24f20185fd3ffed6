// Package acp implements the atomic-commit-protocol abstraction: the
// pluggable "how does the top-level transaction's outcome become durable
// and learnable" step of distributed commit.
//
// The paper's tree-structured two-phase commit (§3.2.3) is built into
// internal/txn and needs nothing from here: the coordinator's forced
// commit record IS the decision, and in-doubt participants resolve by
// asking their parent. It blocks forever if the coordinator dies after
// participants prepare. Manager is the replicated alternative, Paxos
// Commit after Gray & Lamport's "Consensus on Transaction Commit": each
// resource manager's Prepared/Aborted vote is the value of a Paxos
// instance decided by 2F+1 acceptor replicas, so the decision survives the
// coordinator as long as F+1 acceptors live. 2PC is exactly the degenerate
// F=0 case — one acceptor, colocated with the coordinator.
//
// This package deliberately owns only the *decision*: vote collection, the
// session tree, lock release and the commit/abort fan-out all stay in
// internal/txn, which calls through the Protocol interface at the single
// point where the outcome is established.
package acp

import (
	"tabs/internal/types"
	"tabs/internal/wal"
)

// Protocol is a replicated commit-decision strategy installed in the
// Transaction Manager in place of its built-in two-phase commit: the
// decision lives outside the coordinator. The coordinator must force a
// prepare record (naming Acceptors()) before calling DecideCommit, and must
// never unilaterally abort once DecideCommit has been attempted: the
// transaction is in doubt until ResolveInDoubt learns the outcome.
// Implementations must be safe for concurrent use.
type Protocol interface {
	// Acceptors returns the replica set new transactions should be decided
	// by.
	Acceptors() []types.NodeID

	// DecideCommit durably establishes the Committed outcome for tid, whose
	// writer set (coordinator included when it wrote) is members, by getting
	// the all-Prepared vote vector accepted by a quorum of acceptors. An
	// error means the outcome was NOT established here — but it may still
	// have been established by a competing recovery proposer, so the caller
	// must treat an error as "in doubt", not abort.
	DecideCommit(tid types.TransID, members []types.NodeID) error

	// ResolveInDoubt determines the outcome of a prepared transaction whose
	// coordinator is silent. prep is the participant's prepare record. It
	// returns StatusCommitted or StatusAborted when an outcome was
	// established, or StatusPrepared when the protocol could not (yet)
	// decide — the caller stays in doubt and retries later. It never
	// returns a guess: an outcome returned here is durable cluster-wide.
	ResolveInDoubt(tid types.TransID, prep *wal.PrepareBody) types.Status

	// Finished tells the protocol every participant has durably applied the
	// outcome of tid, so replicated decision state may be discarded.
	Finished(tid types.TransID, acceptors []types.NodeID)
}

// --- Ballots and values ----------------------------------------------------

// Ballot orders competing proposers of one transaction's decision. The
// zero ballot is reserved: the transaction's own coordinator proposes at
// Ballot{0, root} (the fast path needs no phase 1 because no acceptor can
// have accepted at a lower ballot), and recovery proposers use N >= 1 with
// their node name breaking ties.
type Ballot struct {
	N    uint32
	Node types.NodeID
}

// Less orders ballots lexicographically.
func (b Ballot) Less(o Ballot) bool {
	if b.N != o.N {
		return b.N < o.N
	}
	return b.Node < o.Node
}

// Votes carried per member in a Value.
const (
	VotePrepared byte = 1
	VoteAborted  byte = 2
)

// Member is one resource manager's vote inside a proposed decision.
type Member struct {
	Node types.NodeID
	Vote byte
}

// Value is a proposed (or decided) outcome for one transaction: the vote
// vector of its writer set. Gray & Lamport run one Paxos instance per RM;
// here all instances of a transaction share one ballot and are batched
// into a single value, which is equivalent because the coordinator always
// proposes the complete vector at once. The empty vector is the Aborted
// sentinel proposed by recovery for instances no coordinator got to.
type Value struct {
	Members []Member
}

// Outcome maps a decided value to the transaction outcome: Committed iff
// the vector is non-empty and every vote is Prepared.
func (v Value) Outcome() types.Status {
	if len(v.Members) == 0 {
		return types.StatusAborted
	}
	for _, m := range v.Members {
		if m.Vote != VotePrepared {
			return types.StatusAborted
		}
	}
	return types.StatusCommitted
}

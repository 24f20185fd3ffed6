// Package comm implements the TABS Communication Manager (paper §3.2.4):
// the only component with access to the network. It provides the three
// forms of network communication the paper enumerates — reliable session
// communication for remote procedure calls, datagrams for the distributed
// two-phase commit, and broadcast for name lookup — and maintains the
// per-transaction spanning tree (parent, children, remote involvement)
// that the Transaction Manager consumes during commit.
package comm

import (
	"errors"
	"fmt"
	"sync"

	"tabs/internal/types"
)

// Kind classifies an envelope on the wire.
type Kind uint8

// Envelope kinds.
const (
	KindSession  Kind = iota // reliable, at-most-once RPC traffic
	KindDatagram             // unreliable one-shot (commit protocol)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSession:
		return "session"
	case KindDatagram:
		return "datagram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Envelope is one unit of inter-node traffic.
type Envelope struct {
	From types.NodeID
	To   types.NodeID
	Kind Kind
	// Epoch distinguishes incarnations of a node: a restarted sender
	// reuses sequence numbers, and the receiver's at-most-once duplicate
	// cache must not answer a new incarnation's call with a previous
	// incarnation's cached reply.
	Epoch   uint64
	Seq     uint64 // session sequence number (dedup / reply matching)
	IsReply bool
	Service string // dispatch target ("datasrv", "name", "txn", ...)
	TID     types.TransID
	Payload []byte
	Err     string // error response for session calls
}

// Receiver is a node's delivery callback; the transport invokes it for
// every arriving envelope. Implementations must not block indefinitely.
type Receiver func(env *Envelope)

// Transport moves envelopes between nodes.
type Transport interface {
	// Send delivers env to env.To. Session envelopes are delivered
	// reliably in order (or an error is returned); datagram envelopes
	// are best effort.
	Send(env *Envelope) error
	// SetReceiver installs the local delivery callback.
	SetReceiver(r Receiver)
	// Peers lists the other reachable nodes (for broadcast).
	Peers() []types.NodeID
	// Close tears the endpoint down.
	Close() error
}

// Transport errors.
var (
	ErrUnreachable = errors.New("comm: node unreachable")
	ErrClosed      = errors.New("comm: endpoint closed")
)

// --- In-memory network ----------------------------------------------------

// MemNetwork connects in-process endpoints; it is the deterministic
// substitute for the Perq Ethernet (see DESIGN.md §1).
type MemNetwork struct {
	mu    sync.Mutex
	nodes map[types.NodeID]*memEndpoint
}

// NewMemNetwork returns an empty network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{nodes: make(map[types.NodeID]*memEndpoint)}
}

// Endpoint attaches a node to the network and returns its transport.
func (n *MemNetwork) Endpoint(id types.NodeID) Transport {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &memEndpoint{net: n, id: id}
	n.nodes[id] = ep
	return ep
}

// Detach removes a node (simulating a crash: in-flight traffic to it is
// dropped, sessions to it fail).
func (n *MemNetwork) Detach(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep := n.nodes[id]; ep != nil {
		ep.mu.Lock()
		ep.closed = true
		ep.recv = nil
		ep.mu.Unlock()
	}
	delete(n.nodes, id)
}

type memEndpoint struct {
	net    *MemNetwork
	id     types.NodeID
	mu     sync.Mutex
	recv   Receiver
	closed bool
}

func (e *memEndpoint) SetReceiver(r Receiver) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recv = r
}

func (e *memEndpoint) Send(env *Envelope) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	e.net.mu.Lock()
	dst := e.net.nodes[env.To]
	e.net.mu.Unlock()
	if dst == nil {
		if env.Kind == KindDatagram {
			return nil // datagrams vanish silently, like UDP to a dead host
		}
		return fmt.Errorf("%w: %s", ErrUnreachable, env.To)
	}
	dst.mu.Lock()
	recv := dst.recv
	dst.mu.Unlock()
	if recv == nil {
		if env.Kind == KindDatagram {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrUnreachable, env.To)
	}
	// Deliver on a fresh goroutine so senders never block on receivers
	// and lock ordering between nodes cannot deadlock.
	cp := *env
	go recv(&cp)
	return nil
}

func (e *memEndpoint) Peers() []types.NodeID {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	out := make([]types.NodeID, 0, len(e.net.nodes))
	for id := range e.net.nodes {
		if id != e.id {
			out = append(out, id)
		}
	}
	return out
}

func (e *memEndpoint) Close() error {
	e.net.Detach(e.id)
	return nil
}

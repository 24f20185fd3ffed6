package fault

import (
	"fmt"
	"sync"
	"time"

	"tabs/internal/comm"
	"tabs/internal/types"
)

// transport wraps a node's comm.Transport with the injector's network
// fault model. It subjects BOTH traffic kinds to the plan: the commit
// protocol's datagrams and the session RPCs that carry remote data-server
// calls.
// Dropping or duplicating a session envelope is safe to inject because the
// session layer retransmits on timeout and dedups by (From, Epoch, Seq);
// the fault model is exactly what that machinery exists for.
//
// Faults are applied on the send side of each (wrapped) endpoint, which
// covers every direction of every link once all nodes are wrapped, and
// makes asymmetric partitions natural: blocking a→b at a's sender leaves
// b→a intact.
type transport struct {
	inner comm.Transport
	in    *Injector
	node  types.NodeID

	mu    sync.Mutex
	stash map[types.NodeID]*comm.Envelope // reorder buffer, one per peer
}

// WrapTransport implements core.FaultPlan: it returns t wrapped with the
// plan's network fault model for traffic sent by node.
func (in *Injector) WrapTransport(node types.NodeID, t comm.Transport) comm.Transport {
	return &transport{inner: t, in: in, node: node, stash: make(map[types.NodeID]*comm.Envelope)}
}

func (t *transport) SetReceiver(r comm.Receiver) { t.inner.SetReceiver(r) }
func (t *transport) Peers() []types.NodeID       { return t.inner.Peers() }
func (t *transport) Close() error                { return t.inner.Close() }

// Send applies, in order: partition check, drop, reorder (hold this
// envelope until the next send to the same peer overtakes it), delay
// (deliver later on a timer — which also reorders relative to prompt
// traffic), duplicate.
func (t *transport) Send(env *comm.Envelope) error {
	in := t.in
	if in.Partitioned(t.node, env.To) {
		// Partitions act even while probabilistic faults are disabled.
		in.countPartitionDrop(t.node)
		if env.Kind == comm.KindDatagram {
			return nil // datagrams into a partition vanish silently
		}
		return fmt.Errorf("%w: %s (partitioned)", comm.ErrUnreachable, env.To)
	}
	if !in.isEnabled() {
		return t.inner.Send(env)
	}
	kind := "datagram"
	if env.Kind == comm.KindSession {
		kind = "session"
	}
	if in.fire(t.node, "comm."+kind+".drop", env.To, 0) {
		return nil // lost in transit; retransmission is the caller's job
	}
	if in.fire(t.node, "comm."+kind+".reorder", env.To, 0) {
		cp := *env
		t.mu.Lock()
		prev := t.stash[env.To]
		t.stash[env.To] = &cp
		t.mu.Unlock()
		if prev != nil {
			_ = t.inner.Send(prev)
		}
		// Backstop: if no later send to this peer releases the envelope,
		// flush it after a short hold so it is reordered, not lost.
		time.AfterFunc(25*time.Millisecond, func() { t.flushStashed(env.To, &cp) })
		return nil
	}
	// This send releases any stashed predecessor AFTER itself — that
	// swap is the reorder.
	t.mu.Lock()
	prev := t.stash[env.To]
	delete(t.stash, env.To)
	t.mu.Unlock()
	if in.fire(t.node, "comm."+kind+".delay", env.To, 0) {
		cp := *env
		time.AfterFunc(in.delayFor(), func() { _ = t.inner.Send(&cp) })
		if prev != nil {
			_ = t.inner.Send(prev)
		}
		return nil
	}
	err := t.inner.Send(env)
	if prev != nil {
		_ = t.inner.Send(prev)
	}
	if err != nil {
		return err
	}
	if in.fire(t.node, "comm."+kind+".dup", env.To, 0) {
		_ = t.inner.Send(env)
	}
	return nil
}

// flushStashed delivers a stashed envelope if no subsequent send released
// it first.
func (t *transport) flushStashed(peer types.NodeID, cp *comm.Envelope) {
	t.mu.Lock()
	held := t.stash[peer] == cp
	if held {
		delete(t.stash, peer)
	}
	t.mu.Unlock()
	if held {
		_ = t.inner.Send(cp)
	}
}

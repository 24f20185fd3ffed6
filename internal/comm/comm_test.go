package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tabs/internal/types"
)

func tid(n uint64) types.TransID {
	return types.TransID{Node: "origin", Seq: n, RootNode: "origin", RootSeq: n}
}

func pair(t *testing.T) (*Manager, *Manager, *MemNetwork) {
	t.Helper()
	net := NewMemNetwork()
	a := New("a", net.Endpoint("a"), nil)
	b := New("b", net.Endpoint("b"), nil)
	return a, b, net
}

func TestSessionCall(t *testing.T) {
	a, b, _ := pair(t)
	b.RegisterService("echo", func(from types.NodeID, _ types.TransID, payload []byte) ([]byte, error) {
		return append([]byte("from "+string(from)+": "), payload...), nil
	})
	out, err := a.Call("b", "echo", types.NilTransID, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "from a: hi" {
		t.Errorf("out %q", out)
	}
}

func TestSessionCallError(t *testing.T) {
	a, b, _ := pair(t)
	b.RegisterService("fail", func(types.NodeID, types.TransID, []byte) ([]byte, error) {
		return nil, errors.New("handler exploded")
	})
	_, err := a.Call("b", "fail", types.NilTransID, nil)
	if err == nil || err.Error() != "handler exploded" {
		t.Errorf("err %v", err)
	}
}

func TestCallUnknownService(t *testing.T) {
	a, _, _ := pair(t)
	if _, err := a.Call("b", "nothing", types.NilTransID, nil); err == nil {
		t.Error("unknown service call succeeded")
	}
}

func TestCallToDeadNodeTimesOut(t *testing.T) {
	net := NewMemNetwork()
	a := New("a", net.Endpoint("a"), nil)
	a.CallTimeout = 50 * time.Millisecond
	a.Retries = 2
	_, err := a.Call("ghost", "x", types.NilTransID, nil)
	if err == nil {
		t.Fatal("call to missing node succeeded")
	}
}

// TestAtMostOnceUnderDuplication wraps the receiver's transport so the
// sender's session envelopes are duplicated; the handler must run once.
func TestAtMostOnceUnderDuplication(t *testing.T) {
	net := NewMemNetwork()
	aT := net.Endpoint("a")
	// Duplicate every session send from a.
	dupT := transportFunc{
		send: func(env *Envelope) error {
			if err := aT.Send(env); err != nil {
				return err
			}
			cp := *env
			return aT.Send(&cp)
		},
		setRecv: aT.SetReceiver,
		peers:   aT.Peers,
		close:   aT.Close,
	}
	a := New("a", dupT, nil)
	// Count envelopes fully processed by b's receiver so the test can
	// wait for the duplicate deterministically instead of sleeping.
	bT := net.Endpoint("b")
	var delivered atomic.Int64
	countT := transportFunc{
		send: bT.Send,
		setRecv: func(r Receiver) {
			bT.SetReceiver(func(env *Envelope) {
				r(env)
				delivered.Add(1)
			})
		},
		peers: bT.Peers,
		close: bT.Close,
	}
	b := New("b", countT, nil)
	var runs atomic.Int64
	b.RegisterService("once", func(types.NodeID, types.TransID, []byte) ([]byte, error) {
		runs.Add(1)
		return []byte("ok"), nil
	})
	if _, err := a.Call("b", "once", types.NilTransID, nil); err != nil {
		t.Fatal(err)
	}
	// Both the original and the duplicate must have been processed.
	waitUntil(t, time.Second, func() bool { return delivered.Load() >= 2 })
	if runs.Load() != 1 {
		t.Errorf("handler ran %d times (at-most-once violated)", runs.Load())
	}
}

type transportFunc struct {
	send    func(*Envelope) error
	setRecv func(Receiver)
	peers   func() []types.NodeID
	close   func() error
}

func (t transportFunc) Send(e *Envelope) error { return t.send(e) }
func (t transportFunc) SetReceiver(r Receiver) { t.setRecv(r) }
func (t transportFunc) Peers() []types.NodeID  { return t.peers() }
func (t transportFunc) Close() error           { return t.close() }

func TestBroadcastReachesAllPeers(t *testing.T) {
	net := NewMemNetwork()
	a := New("a", net.Endpoint("a"), nil)
	var mu sync.Mutex
	seen := map[types.NodeID]bool{}
	for _, name := range []types.NodeID{"b", "c", "d"} {
		n := name
		m := New(n, net.Endpoint(n), nil)
		m.RegisterService("bc", func(from types.NodeID, _ types.TransID, _ []byte) ([]byte, error) {
			mu.Lock()
			seen[n] = true
			mu.Unlock()
			return nil, nil
		})
	}
	if err := a.Broadcast("bc", []byte("hello all")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("broadcast reached %d of 3 peers", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSpanningTree verifies the parent/child bookkeeping: a first invokes
// on b (a is b's parent), b then invokes on c (b is c's parent, c is b's
// child).
func TestSpanningTree(t *testing.T) {
	net := NewMemNetwork()
	a := New("a", net.Endpoint("a"), nil)
	b := New("b", net.Endpoint("b"), nil)
	c := New("c", net.Endpoint("c"), nil)
	topTID := tid(1)

	c.RegisterService("op", func(types.NodeID, types.TransID, []byte) ([]byte, error) {
		return nil, nil
	})
	b.RegisterService("op", func(_ types.NodeID, id types.TransID, _ []byte) ([]byte, error) {
		// b calls on to c on behalf of the same transaction.
		return b.Call("c", "op", id, nil)
	})

	if _, err := a.Call("b", "op", topTID, nil); err != nil {
		t.Fatal(err)
	}

	parent, hasParent, children := a.Tree(topTID)
	if hasParent {
		t.Error("coordinator has a parent")
	}
	if len(children) != 1 || children[0] != "b" {
		t.Errorf("a's children %v", children)
	}
	parent, hasParent, children = b.Tree(topTID)
	if !hasParent || parent != "a" {
		t.Errorf("b's parent %v %v", parent, hasParent)
	}
	if len(children) != 1 || children[0] != "c" {
		t.Errorf("b's children %v", children)
	}
	parent, hasParent, children = c.Tree(topTID)
	if !hasParent || parent != "b" {
		t.Errorf("c's parent %v", parent)
	}
	if len(children) != 0 {
		t.Errorf("c's children %v", children)
	}
}

func TestNoteRemoteFiredOnce(t *testing.T) {
	net := NewMemNetwork()
	a := New("a", net.Endpoint("a"), nil)
	b := New("b", net.Endpoint("b"), nil)
	b.RegisterService("op", func(types.NodeID, types.TransID, []byte) ([]byte, error) { return nil, nil })
	var notes atomic.Int64
	a.SetTransactionNoter(noterFunc(func(types.TransID) { notes.Add(1) }))
	for i := 0; i < 3; i++ {
		if _, err := a.Call("b", "op", tid(7), nil); err != nil {
			t.Fatal(err)
		}
	}
	if notes.Load() != 1 {
		t.Errorf("NoteRemote fired %d times, want 1", notes.Load())
	}
}

type noterFunc func(types.TransID)

func (f noterFunc) NoteRemote(t types.TransID) { f(t) }

func TestForgetTree(t *testing.T) {
	net := NewMemNetwork()
	a := New("a", net.Endpoint("a"), nil)
	b := New("b", net.Endpoint("b"), nil)
	b.RegisterService("op", func(types.NodeID, types.TransID, []byte) ([]byte, error) { return nil, nil })
	if _, err := a.Call("b", "op", tid(2), nil); err != nil {
		t.Fatal(err)
	}
	a.ForgetTree(tid(2))
	_, _, children := a.Tree(tid(2))
	if len(children) != 0 {
		t.Errorf("tree survived forget: %v", children)
	}
}

func TestTCPTransportLoopback(t *testing.T) {
	// Build two TCP transports on loopback and run a session call and a
	// datagram through real sockets.
	ta, err := NewTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCP("b", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	// Exchange addresses post-bind.
	ta.peers = map[types.NodeID]string{"b": tb.Addr()}
	tb.peers = map[types.NodeID]string{"a": ta.Addr()}

	a := New("a", ta, nil)
	b := New("b", tb, nil)
	b.RegisterService("echo", func(_ types.NodeID, _ types.TransID, p []byte) ([]byte, error) {
		return append([]byte("tcp:"), p...), nil
	})
	out, err := a.Call("b", "echo", types.NilTransID, []byte("over the wire"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "tcp:over the wire" {
		t.Errorf("out %q", out)
	}

	var got atomic.Int64
	b.RegisterService("dg", func(types.NodeID, types.TransID, []byte) ([]byte, error) {
		got.Add(1)
		return nil, nil
	})
	if err := a.SendDatagram("b", "dg", types.NilTransID, []byte("fire and forget"), 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for got.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("datagram never arrived over TCP")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPDatagramToDeadPeerSilentlyDropped(t *testing.T) {
	ta, err := NewTCP("a", "127.0.0.1:0", map[types.NodeID]string{"dead": "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	env := &Envelope{From: "a", To: "dead", Kind: KindDatagram, Service: "x"}
	if err := ta.Send(env); err != nil {
		t.Errorf("datagram to dead peer returned %v", err)
	}
	sess := &Envelope{From: "a", To: "dead", Kind: KindSession, Service: "x"}
	if err := ta.Send(sess); err == nil {
		t.Error("session to dead peer succeeded")
	}
}

func TestDetachSimulatesCrash(t *testing.T) {
	net := NewMemNetwork()
	a := New("a", net.Endpoint("a"), nil)
	a.CallTimeout = 50 * time.Millisecond
	a.Retries = 1
	b := New("b", net.Endpoint("b"), nil)
	b.RegisterService("op", func(types.NodeID, types.TransID, []byte) ([]byte, error) { return nil, nil })
	if _, err := a.Call("b", "op", types.NilTransID, nil); err != nil {
		t.Fatal(err)
	}
	net.Detach("b")
	if _, err := a.Call("b", "op", types.NilTransID, nil); err == nil {
		t.Error("call to crashed node succeeded")
	}
}

func TestEnvelopeKindString(t *testing.T) {
	if KindSession.String() != "session" || KindDatagram.String() != "datagram" {
		t.Error("kind names wrong")
	}
	if fmt.Sprintf("%v", Kind(9)) == "" {
		t.Error("unknown kind empty")
	}
}

// waitUntil polls cond every millisecond until it holds or the deadline
// passes, replacing fixed sleeps that race the goroutines they wait for.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

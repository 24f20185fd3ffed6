package core_test

import (
	"testing"
	"time"

	"tabs/internal/comm"
	"tabs/internal/core"
	"tabs/internal/disk"
	"tabs/internal/fault"
	"tabs/internal/servers/intarray"
	"tabs/internal/stats"
	"tabs/internal/types"
)

// flakyPair builds two full nodes whose datagram traffic is dropped and
// duplicated with the given probabilities — sessions stay reliable, as the
// paper's session layer guaranteed, so exactly the commit protocol's
// datagram tolerance is exercised.
func flakyPair(t *testing.T, drop, dup float64) (*core.Node, *core.Node, func()) {
	t.Helper()
	net := comm.NewMemNetwork()
	mk := func(name types.NodeID, seed int64) *core.Node {
		inj := fault.New(seed, fault.Profile{Name: "datagram-loss", Rules: map[string]fault.Rule{
			"comm.datagram.drop": {Prob: drop},
			"comm.datagram.dup":  {Prob: dup},
		}})
		inj.Enable()
		n, err := core.NewNode(core.Config{
			ID:          name,
			Disk:        disk.New(disk.DefaultGeometry(4096)),
			LogSectors:  512,
			PoolPages:   64,
			Transport:   inj.WrapTransport(name, net.Endpoint(name)),
			Registry:    stats.NewRegistry(),
			LockTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Fast retries so lost commit datagrams are retransmitted quickly.
		n.TM.Configure(100*time.Millisecond, 20, 0)
		if _, err := intarray.Attach(n, "arr", 1, 50, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Recover(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	na := mk("a", 11)
	nb := mk("b", 22)
	return na, nb, func() {
		_ = na.Shutdown()
		_ = nb.Shutdown()
	}
}

// TestDistributedCommitFullStackUnderDatagramLoss drives distributed
// write transactions through the entire stack while a third of the commit
// datagrams are dropped and a tenth duplicated.
func TestDistributedCommitFullStackUnderDatagramLoss(t *testing.T) {
	na, nb, done := flakyPair(t, 0.3, 0.1)
	defer done()
	local := intarray.NewClient(na, "a", "arr")
	remote := intarray.NewClient(na, "b", "arr")

	for i := int64(1); i <= 8; i++ {
		if err := na.App.Run(func(tid types.TransID) error {
			if err := local.Set(tid, 1, i); err != nil {
				return err
			}
			return remote.Set(tid, 1, i*10)
		}); err != nil {
			t.Fatalf("transaction %d under loss: %v", i, err)
		}
	}
	// Both nodes hold the final committed values.
	fromB := intarray.NewClient(nb, "b", "arr")
	if err := nb.App.Run(func(tid types.TransID) error {
		v, err := fromB.Get(tid, 1)
		if err != nil {
			return err
		}
		if v != 80 {
			t.Errorf("b's cell = %d, want 80", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedDeadlockResolvedByTimeout constructs the classic
// two-node cyclic wait: t1 locks a's cell then wants b's; t2 locks b's
// cell then wants a's. No deadlock detector exists — TABS "relies on
// time-outs" (§2.1.3) — so one (or both) waits must time out, the
// application aborts, and afterwards both cells are free.
func TestDistributedDeadlockResolvedByTimeout(t *testing.T) {
	c, err := core.NewCluster(core.DefaultClusterOptions(), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	na, nb := c.Node("a"), c.Node("b")
	for _, nn := range []*core.Node{na, nb} {
		if _, err := intarray.Attach(nn, "arr", 1, 10, 300*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if _, err := nn.Recover(); err != nil {
			t.Fatal(err)
		}
	}
	arrA := intarray.NewClient(na, "a", "arr")
	arrB := intarray.NewClient(na, "b", "arr")

	t1, _ := na.App.BeginTransaction(types.NilTransID)
	t2, _ := na.App.BeginTransaction(types.NilTransID)
	if err := arrA.Set(t1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := arrB.Set(t2, 1, 2); err != nil {
		t.Fatal(err)
	}

	// Close the cycle concurrently.
	r1 := make(chan error, 1)
	r2 := make(chan error, 1)
	go func() { r1 <- arrB.Set(t1, 1, 1) }()
	go func() { r2 <- arrA.Set(t2, 1, 2) }()
	e1, e2 := <-r1, <-r2
	if e1 == nil && e2 == nil {
		t.Fatal("cyclic waits both succeeded — no deadlock existed?")
	}
	// Abort both; everything must come free.
	_ = na.App.AbortTransaction(t1)
	_ = na.App.AbortTransaction(t2)

	deadline := time.Now().Add(2 * time.Second)
	for {
		err := na.App.Run(func(tid types.TransID) error {
			if err := arrA.Set(tid, 1, 9); err != nil {
				return err
			}
			return arrB.Set(tid, 1, 9)
		})
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("locks not released after deadlock aborts: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCoordinatorCrashBeforeCommitPresumesAbort: the coordinator crashes
// after the participant prepared but before any commit record exists.
// The participant's in-doubt resolution must conclude abort (presumed
// abort: no commit record on the rebooted coordinator) and release the
// data.
func TestCoordinatorCrashBeforeCommitPresumesAbort(t *testing.T) {
	c, err := core.NewCluster(core.DefaultClusterOptions(), "coord", "part")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	nc, np := c.Node("coord"), c.Node("part")
	for _, nn := range []*core.Node{nc, np} {
		if _, err := intarray.Attach(nn, "arr", 1, 10, time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := nn.Recover(); err != nil {
			t.Fatal(err)
		}
	}
	np.TM.Configure(100*time.Millisecond, 3, 300*time.Millisecond)

	remote := intarray.NewClient(nc, "part", "arr")
	tid, _ := nc.App.BeginTransaction(types.NilTransID)
	if err := remote.Set(tid, 1, 42); err != nil {
		t.Fatal(err)
	}
	// Crash the coordinator with the transaction still active; the
	// participant holds an uncommitted write and an open transaction.
	c.Crash("coord")

	// Reboot the coordinator: its log has no commit record, so status
	// queries answer "presumed abort".
	nc2, err := c.Reboot("coord")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := intarray.Attach(nc2, "arr", 1, 10, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := nc2.Recover(); err != nil {
		t.Fatal(err)
	}

	// The participant's cell must eventually be free and zero. (Its lock
	// is held by the orphaned transaction until an abort or time-out
	// path clears it; the lock time-out makes reads fail until then.)
	fromP := intarray.NewClient(np, "part", "arr")
	deadline := time.Now().Add(5 * time.Second)
	for {
		var v int64
		err := np.App.Run(func(tid types.TransID) error {
			var gerr error
			v, gerr = fromP.Get(tid, 1)
			return gerr
		})
		if err == nil && v == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphaned write not cleaned up: v=%d err=%v", v, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

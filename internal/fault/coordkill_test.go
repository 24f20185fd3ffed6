package fault_test

import (
	"testing"
	"time"

	"tabs/internal/core"
	"tabs/internal/fault"
	"tabs/internal/servers/intarray"
	"tabs/internal/types"
	"tabs/internal/workload"
)

// TestCoordKillBlockingWindow pins the availability difference between the
// two commit protocols under the same failure: the coordinator of a fully
// prepared distributed transaction is killed at the decision point and
// never comes back.
//
// Under 2pc this is the classic blocking window — presumed abort cannot
// fire for a prepared participant (the dead coordinator may hold a commit
// record), so the survivors stay in doubt and hold the transaction's write
// locks indefinitely. The subtest documents exactly that, and is the
// regression pin for the failure mode Paxos Commit removes.
//
// Under paxos the decision is owned by the acceptor quorum (both survivors
// are acceptors), so every prepared participant resolves with the
// coordinator permanently dead: to aborted when it died before proposing
// ("decide"), to committed when it died after the quorum accepted the
// decision ("decided").
func TestCoordKillBlockingWindow(t *testing.T) {
	t.Run("2pc-blocks", func(t *testing.T) {
		rep, err := fault.RunCoordKill(fault.CoordKillOptions{
			CommitProtocol: "2pc",
			KillPhase:      "decide",
			ResolveWait:    2 * time.Second,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Resolved {
			t.Fatalf("2pc resolved an in-doubt transaction with the coordinator dead — presumed abort fired for a prepared participant? %s", rep)
		}
		if rep.LiveLeft == 0 {
			t.Fatalf("2pc survivors hold no live transactions yet never resolved: %s", rep)
		}
		if !rep.LocksHeld {
			t.Fatalf("2pc blocking window must hold the doomed transaction's locks: %s", rep)
		}
	})
	for _, tc := range []struct {
		phase, wantOutcome string
	}{
		{"decide", "aborted"},    // nothing proposed: recovery closes the instances with abort
		{"decided", "committed"}, // quorum accepted the decision: survivors learn commit
	} {
		t.Run("paxos-"+tc.phase, func(t *testing.T) {
			rep, err := fault.RunCoordKill(fault.CoordKillOptions{
				CommitProtocol: "paxos",
				KillPhase:      tc.phase,
				ResolveWait:    10 * time.Second,
				Logf:           t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Resolved {
				t.Fatalf("paxos did not resolve with F=1 of 3 acceptors dead: %s", rep)
			}
			if rep.Outcome != tc.wantOutcome {
				t.Fatalf("paxos kill at %q resolved to %q, want %q: %s", tc.phase, rep.Outcome, tc.wantOutcome, rep)
			}
			if rep.LocksHeld {
				t.Fatalf("paxos resolved but the doomed transaction's locks are still held: %s", rep)
			}
			t.Logf("resolved in %dms", rep.ResolveMs)
		})
	}
}

// TestLaggardWriterLearnsCommitAfterPartition pins the Forget-gating rule:
// when a writer is partitioned away for the whole commit fan-out (it
// voted, then missed the accept broadcasts, the decision, and every
// phase-2 retry), the coordinator must NOT tell the acceptors to forget
// the decision — the laggard's only path to the outcome is the quorum. If
// Finished were sent unconditionally, the surviving acceptors would drop
// the decided entry, and the laggard's recovery ballot would conclude
// Abort for a transaction the rest of the cluster committed.
func TestLaggardWriterLearnsCommitAfterPartition(t *testing.T) {
	prof, err := fault.ProfileByName("none")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(1, prof)
	copts := core.DefaultClusterOptions()
	copts.CommitProtocol = "paxos"
	copts.LockTimeout = 500 * time.Millisecond
	copts.Faults = inj
	c, err := workload.Boot(workload.Options{
		Cluster: copts,
		Nodes:   []types.NodeID{"c0", "p1", "p2"},
		Attach:  workload.IntArray("arr", 8, 500*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for _, n := range c.Nodes() {
		n.TM.Configure(75*time.Millisecond, 3, 300*time.Millisecond)
	}
	coord, p2 := c.Node("c0"), c.Node("p2")

	// At the decision point — every writer has voted, nothing proposed
	// yet — cut p2 off from the rest of the cluster. It misses the accept
	// round, the decide broadcast, and every phase-2 commit retry.
	coord.TM.SetDecideHook(func(_ types.TransID, phase string) {
		if phase == "decide" {
			inj.Partition("c0", "p2", true)
			inj.Partition("p1", "p2", true)
		}
	})

	const want = int64(7171)
	if err := coord.App.Run(func(tid types.TransID) error {
		for _, tgt := range []types.NodeID{"p1", "p2"} {
			if err := intarray.NewClient(coord, tgt, "arr").Set(tid, 1, want); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("commit with laggard writer: %v", err)
	}

	// The coordinator is done; p2 is prepared in doubt behind the
	// partition. Heal and wait for the sweeper to resolve it against the
	// acceptors — which must still hold the decision.
	inj.HealAll()
	local := intarray.NewClient(p2, "p2", "arr")
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got int64
		err := p2.App.Run(func(tid types.TransID) error {
			v, gerr := local.Get(tid, 1)
			got = v
			return gerr
		})
		if err == nil && got == want && p2.TM.LiveTransactions() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("laggard never learned the commit: val=%d err=%v live=%d (acceptors told to forget too early?)",
				got, err, p2.TM.LiveTransactions())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestTorturePaxosSmoke runs the randomized torture workload with the
// replicated commit protocol under the partition profile: in-doubt commits
// (ErrInDoubt from a partitioned quorum) must all resolve and the model
// must hold.
func TestTorturePaxosSmoke(t *testing.T) {
	rep, err := fault.RunTorture(fault.TortureOptions{
		Seed:           20260808,
		Nodes:          3,
		Txns:           40,
		Profile:        "partition",
		CommitProtocol: "paxos",
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	if rep.Committed == 0 {
		t.Fatal("no transaction committed; the harness exercised nothing")
	}
}

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

// TestTortureSmoke is the CI smoke run: a fixed seed, three nodes, fifty
// transactions under the full chaos profile (crashes, partitions, disk
// faults, message faults). It must pass all four recovery invariants; a
// failure report carries the seed and fault trace for reproduction.
func TestTortureSmoke(t *testing.T) {
	rep, err := fault.RunTorture(fault.TortureOptions{
		Seed:    20260806,
		Nodes:   3,
		Txns:    50,
		Profile: "chaos",
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	if rep.Committed == 0 {
		t.Fatal("no transaction committed; the harness exercised nothing")
	}
}

// TestTortureCrashProfile leans on crash/recover cycles specifically,
// including injector-requested crashes at disk and WAL points.
func TestTortureCrashProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("long torture run")
	}
	rep, err := fault.RunTorture(fault.TortureOptions{
		Seed:    7,
		Nodes:   3,
		Txns:    40,
		Profile: "crash",
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
}

// TestSessionFaultsAtMostOnce drives sequential increment transactions
// between two nodes while the net profile drops, duplicates, delays, and
// reorders BOTH datagram and session traffic. Every committed increment
// must be applied exactly once: the session layer's (From, Epoch, Seq)
// dedup is what makes duplicated session envelopes safe.
func TestSessionFaultsAtMostOnce(t *testing.T) {
	prof, err := fault.ProfileByName("net")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(99, prof)
	opts := core.DefaultClusterOptions()
	opts.Faults = inj
	c, err := workload.Boot(workload.Options{
		Cluster: opts,
		Nodes:   []types.NodeID{"a", "b"},
		Attach:  workload.IntArray("arr", 8, 2*time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for _, n := range c.Nodes() {
		n.TM.Configure(75*time.Millisecond, 6, 0)
		n.CM.CallTimeout = 150 * time.Millisecond
		n.CM.Retries = 8
	}
	inj.Enable()

	na := c.Node("a")
	remote := intarray.NewClient(na, "b", "arr")
	committed := int64(0)
	for i := 0; i < 30; i++ {
		err := na.App.Run(func(tid types.TransID) error {
			v, err := remote.Get(tid, 1)
			if err != nil {
				return err
			}
			return remote.Set(tid, 1, v+1)
		})
		if err == nil {
			committed++
		}
	}
	inj.Disable()
	if committed == 0 {
		t.Fatal("nothing committed under net faults")
	}
	var final int64
	if err := na.App.Run(func(tid types.TransID) error {
		v, err := remote.Get(tid, 1)
		final = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if final != committed {
		t.Fatalf("cell = %d after %d committed increments: lost or duplicated effects (seed=%d)\n%s",
			final, committed, inj.Seed(), inj.FormatEvents())
	}
}

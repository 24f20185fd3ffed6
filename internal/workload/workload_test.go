package workload

import (
	"errors"
	"testing"
	"time"

	"tabs/internal/core"
	"tabs/internal/types"
)

// TestLateResolutionKeepsNewerValue pins the model's ordering rule: an
// in-doubt commit that resolves after a later-issued transaction committed
// the same cell serialized before it, so it must not overwrite the value.
func TestLateResolutionKeepsNewerValue(t *testing.T) {
	k := Key{Node: "n0", Cell: 1}
	m := (&Fixture{}).NewModel([]Key{k})
	m.commit(2, []Write{{Key: k, Val: 20}}) // issued second, acknowledged first
	m.commit(1, []Write{{Key: k, Val: 10}}) // issued first, resolved late
	if got := m.val[k]; got != 20 {
		t.Fatalf("late resolution clobbered the newer value: cell = %d, want 20", got)
	}
	m.commit(3, []Write{{Key: k, Val: 30}})
	if got := m.val[k]; got != 30 {
		t.Fatalf("cell = %d after a newer commit, want 30", got)
	}
}

func TestMedianRunKeepsLowerMiddleRun(t *testing.T) {
	scores := []float64{5, 1, 9, 3}
	i := 0
	run, all, err := MedianRun(len(scores), func() (float64, error) {
		i++
		return scores[i-1], nil
	}, func(v float64) float64 { return v })
	if err != nil || run != 3 || len(all) != 4 || all[2] != 9 {
		t.Fatalf("median run %v of %v (err %v), want 3 with samples in run order", run, all, err)
	}
	boom := errors.New("boom")
	if _, _, err := MedianRun(2, func() (int, error) { return 0, boom }, func(int) float64 { return 0 }); err != boom {
		t.Fatalf("a failed run returned %v, want its error", err)
	}
}

func TestRetryUntilReturnsLastError(t *testing.T) {
	calls := 0
	err := RetryUntil(time.Now().Add(30*time.Millisecond), time.Millisecond, func() error {
		calls++
		if calls < 3 {
			return errors.New("not yet")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err %v after %d calls, want success on the third", err, calls)
	}
	stuck := errors.New("stuck")
	if err := RetryUntil(time.Now().Add(5*time.Millisecond), time.Millisecond, func() error { return stuck }); err != stuck {
		t.Fatalf("past the deadline got %v, want fn's last error", err)
	}
}

// TestVerifyCatchesLostAndPhantomWrites drives the fixture, the model and
// the verifier end to end on a healthy two-node cluster, across a crash and
// reboot, then shows the verifier is not vacuous: a write the model never
// heard of, and a write the model believes in that the servers lost, both
// fail invariant 1/2.
func TestVerifyCatchesLostAndPhantomWrites(t *testing.T) {
	fx, err := Boot(Options{
		Cluster:       core.DefaultClusterOptions(),
		Nodes:         []types.NodeID{"a", "b"},
		Attach:        IntArray("arr", 4, 200*time.Millisecond),
		TortureTimers: true,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Shutdown()
	var keys []Key
	for _, n := range []types.NodeID{"a", "b"} {
		for c := uint64(1); c <= 4; c++ {
			keys = append(keys, Key{Node: n, Cell: c})
		}
	}
	m := fx.NewModel(keys)
	a := fx.Node("a")
	st := IntArrays{From: a, ID: "arr"}
	if err := m.Apply(a, st, []Write{{keys[0], 7}, {keys[5], 8}}); err != nil {
		t.Fatal(err)
	}
	fx.Crash("b")
	if _, report, err := fx.Reboot("b"); err != nil || report == nil {
		t.Fatalf("reboot: %v (report %v)", err, report)
	}
	if err := m.Verify(a, st, 100, time.Now().Add(5*time.Second)); err != nil {
		t.Fatalf("healthy cluster failed verification: %v", err)
	}

	// A committed write the model was never told about.
	if err := a.App.Run(func(tid types.TransID) error { return st.Set(tid, keys[1], 999) }); err != nil {
		t.Fatal(err)
	}
	if err := m.Check(a, st); err == nil {
		t.Fatal("the verifier accepted a value no acknowledged transaction wrote")
	}
	// And an acknowledged write the servers do not hold.
	m.commit(1<<30, []Write{{keys[1], 999}, {keys[2], 555}})
	if err := m.Check(a, st); err == nil {
		t.Fatal("the verifier accepted the loss of an acknowledged write")
	}
}

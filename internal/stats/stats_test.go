package stats

import (
	"sync"
	"testing"

	"tabs/internal/simclock"
)

func TestPhaseScoping(t *testing.T) {
	r := NewRecorder()
	r.Record(simclock.SmallMsg)
	r.SetPhase(Commit)
	r.Record(simclock.Datagram)
	r.RecordN(simclock.Datagram, 0.5)
	pre := r.Snapshot(PreCommit)
	com := r.Snapshot(Commit)
	if pre[simclock.SmallMsg] != 1 || pre[simclock.Datagram] != 0 {
		t.Errorf("pre %v", pre)
	}
	if com[simclock.Datagram] != 1.5 {
		t.Errorf("commit %v", com)
	}
	total := r.Total()
	if total[simclock.SmallMsg] != 1 || total[simclock.Datagram] != 1.5 {
		t.Errorf("total %v", total)
	}
}

func TestPredict(t *testing.T) {
	var c Counts
	c[simclock.DataServerCall] = 1
	c[simclock.SmallMsg] = 4
	// 26.1 + 4×3.0 = 38.1 ms — the paper's "1 Local Read" pre-commit sum.
	got := c.Predict(simclock.PerqT2())
	if got < 38.0 || got > 38.2 {
		t.Errorf("predict %v", got)
	}
}

func TestCountsArithmetic(t *testing.T) {
	var a, b Counts
	a[0], b[0] = 2, 3
	if a.Add(b)[0] != 5 || b.Sub(a)[0] != 1 || a.Scale(2)[0] != 4 {
		t.Error("arithmetic broken")
	}
	if !((Counts{}).IsZero()) || a.IsZero() {
		t.Error("IsZero broken")
	}
}

func TestRegistry(t *testing.T) {
	g := NewRegistry()
	g.Recorder("n1/kernel").Record(simclock.SmallMsg)
	g.Recorder("n1/tm").Record(simclock.SmallMsg)
	g.Recorder("n2/kernel").Record(simclock.Datagram)
	total := g.TotalCounts(PreCommit)
	if total[simclock.SmallMsg] != 2 || total[simclock.Datagram] != 1 {
		t.Errorf("total %v", total)
	}
	named := g.NamedCounts(PreCommit)
	if named["n1/kernel"][simclock.SmallMsg] != 1 {
		t.Errorf("named %v", named)
	}
	names := g.Names()
	if len(names) != 3 || names[0] != "n1/kernel" {
		t.Errorf("names %v", names)
	}
	g.SetPhaseAll(Commit)
	g.Recorder("n1/tm").Record(simclock.Datagram)
	if g.TotalCounts(Commit)[simclock.Datagram] != 1 {
		t.Error("phase switch not applied to all recorders")
	}
	g.ResetAll()
	if !g.TotalCounts(PreCommit).IsZero() || !g.TotalCounts(Commit).IsZero() {
		t.Error("reset incomplete")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Record(simclock.SmallMsg)
			}
		}()
	}
	wg.Wait()
	if got := r.Total()[simclock.SmallMsg]; got != 8000 {
		t.Errorf("count %v", got)
	}
}

func TestCountsString(t *testing.T) {
	var c Counts
	if c.String() != "(none)" {
		t.Errorf("zero counts string %q", c.String())
	}
	c[simclock.SmallMsg] = 2
	if c.String() == "(none)" {
		t.Error("non-zero counts rendered empty")
	}
}

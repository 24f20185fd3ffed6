package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"tabs/internal/types"
)

// quickSizes keeps the smoke runs inside the tier-1 time budget.
var quickSizes = sizes{setups: 2, crashes: 1, tail: 50, probeRepeats: 2, probeCalls: 300}

// TestSmokeEveryWorkload runs both kinds of run on every workload for
// 300 ms and checks the contract: every named metric present, finite and
// carrying its unit, outputs correct, nothing failed.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(runConfig{w: w, seed: 1, window: 300 * time.Millisecond, trace: trace,
				outDir: t.TempDir(), log: io.Discard, sizes: quickSizes})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d (%s)", w.name, trace, res.Correct, res.Failed, res.Attempted, rep.Error)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", w.name, d.Name)
				case v.Unit != d.Unit || v.Unit == "":
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.name, d.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, d.Name, v.Value)
				}
			}
		}
	}
}

// TestSameSeedSameInputs: the seed alone determines the generated keys
// and the arrival schedule.
func TestSameSeedSameInputs(t *testing.T) {
	generate := func(w *workload, seed int64) (plans []plan, dues []time.Duration) {
		wk := w.newWorkers(seed)[0]
		for i := 0; i < 200; i++ {
			var p plan
			w.next(wk, &p, -1)
			plans = append(plans, p)
		}
		sched := newSchedule(wk.rng, commitRate)
		for i := 0; i < 200; i++ {
			dues = append(dues, sched.peek())
			sched.pop()
		}
		return plans, dues
	}
	for _, w := range workloads {
		p1, d1 := generate(w, 7)
		p2, d2 := generate(w, 7)
		p3, d3 := generate(w, 8)
		if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(d1, d2) {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if reflect.DeepEqual(p1, p3) || reflect.DeepEqual(d1, d3) {
			t.Errorf("%s: different seeds generated the same inputs", w.name)
		}
	}
}

func bootForTest(t *testing.T, name string) *fixture {
	t.Helper()
	fx, err := boot(findWorkload(name), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fx.c.Shutdown)
	return fx
}

// commitBehindTheModel writes v to a cell in a committed transaction the
// worker's model never hears of.
func commitBehindTheModel(t *testing.T, fx *fixture, key uint64, v int64) {
	t.Helper()
	err := fx.home.App.Run(func(tid types.TransID) error { return fx.stub.Set(tid, key, v) })
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckerCatchesWrongValues: the read-back passes on an honest run and
// fails when a cell is corrupted behind the model's back, when the cells of
// one slot disagree across shards, and when the value of a transaction that
// was never acknowledged becomes visible.
func TestCheckerCatchesWrongValues(t *testing.T) {
	t.Run("honest", func(t *testing.T) {
		fx := bootForTest(t, "dist_2pc")
		fx.closedLoop(50*time.Millisecond, false)
		if checked, bad, err := fx.verify(); err != nil || bad != 0 || checked == 0 {
			t.Fatalf("checked=%d violations=%d err=%v (%v)", checked, bad, err, fx.firstErr)
		}
	})
	t.Run("corrupted cell", func(t *testing.T) {
		fx := bootForTest(t, "local_hot")
		commitBehindTheModel(t, fx, fx.w.cell(1, 5, 0), 424242)
		if _, bad, err := fx.verify(); err != nil || bad != 1 {
			t.Fatalf("violations=%d err=%v, want exactly the corrupted cell", bad, err)
		}
	})
	t.Run("shards disagree", func(t *testing.T) {
		fx := bootForTest(t, "dist_2pc")
		// The acknowledged value on one shard only: right value, wrong atomicity.
		wk := fx.workers[0]
		wk.ack[3]++
		commitBehindTheModel(t, fx, fx.w.cell(0, 3, 0), wk.ack[3])
		if _, bad, err := fx.verify(); err != nil || bad != 2 {
			t.Fatalf("violations=%d err=%v, want the two shards left behind", bad, err)
		}
	})
	t.Run("unfinished value visible", func(t *testing.T) {
		fx := bootForTest(t, "local_commit")
		if _, _, bad, err := fx.crashRecover(20); err != nil || bad != 0 {
			t.Fatalf("after an honest restart: violations=%d err=%v (%v)", bad, err, fx.firstErr)
		}
		// What a restart that failed to undo unfinished transaction 2 would leave.
		commitBehindTheModel(t, fx, fx.w.cell(0, 2, 0), -3)
		if _, bad, err := fx.verify(); err != nil || bad != 1 {
			t.Fatalf("violations=%d err=%v, want the visible unfinished value", bad, err)
		}
	})
}

// TestOpenLoopTimesFromDueTime: a 50 ms stall of the generator shows up in
// the latencies of the requests that were due during it, and in the
// generator's own lateness.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	fx := bootForTest(t, "local_commit")
	calm := fx.openLoop(200*time.Millisecond, generatorTick, false)
	calmMax := slices.Max(calm.rw)
	if calmMax > int64(20*time.Millisecond) {
		t.Skipf("machine too noisy for this test: %v without a stall", time.Duration(calmMax))
	}
	const stall = 50 * time.Millisecond
	ticks := 0
	win := fx.openLoop(300*time.Millisecond, func() {
		if ticks++; ticks == 50 {
			time.Sleep(stall)
			return
		}
		generatorTick()
	}, false)
	if win.failed != 0 {
		t.Fatalf("%d transactions failed: %v", win.failed, fx.firstErr)
	}
	// About 600/s x 50 ms = 30 arrivals were due during the stall; those
	// due in its first half waited at least 25 ms.
	delayed := 0
	for _, lat := range win.rw {
		if lat >= int64(stall/2) {
			delayed++
		}
	}
	if delayed < 5 {
		t.Errorf("%d latencies of at least %v; the stall is missing from the latencies (max %v)", delayed, stall/2, time.Duration(slices.Max(win.rw)))
	}
	if late := slices.Max(win.late); late < int64(stall*8/10) {
		t.Errorf("generator lateness peaks at %v, want about %v", time.Duration(late), stall)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q2 != 3 || q3 != 7 {
		t.Errorf("quartiles of 1 2 4 8 = %v %v %v, want 1.25 3 7", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "txn_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "txn_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "worse"},
		{lower, steady, []float64{80, 81, 80, 79, 80}, "ok"},
		{higher, steady, []float64{85, 86, 85, 84, 85}, "worse"},
		{higher, steady, []float64{120, 121, 120, 119, 120}, "ok"},
		{lower, steady, []float64{80, 100, 120, 90, 110}, "unresolved"},
		{lower, []float64{100}, []float64{105}, "ok"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the code in step: the
// same workloads with the same reasons, the same metrics with the same
// units, directions and bounds, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s: bound in BENCHMARK.json does not match the code's %v", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}

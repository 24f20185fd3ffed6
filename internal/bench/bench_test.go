package bench

import (
	"os"
	"testing"

	"tabs/internal/simclock"
	"tabs/internal/stats"
)

func TestPaper14NamesMatchReferenceTables(t *testing.T) {
	for _, b := range Paper14() {
		if _, ok := PaperTable54[b.Name]; !ok {
			t.Errorf("benchmark %q missing from PaperTable54", b.Name)
		}
		if _, ok := PaperTable52Counts[b.Name]; !ok {
			t.Errorf("benchmark %q missing from PaperTable52Counts", b.Name)
		}
	}
	if len(Paper14()) != 14 {
		t.Errorf("Paper14 has %d benchmarks", len(Paper14()))
	}
}

func TestCommitClass(t *testing.T) {
	cases := map[string]Benchmark{
		"1 Node, Read Only": {LocalOps: 1},
		"1 Node, Write":     {LocalOps: 1, Write: true},
		"2 Node, Read Only": {LocalOps: 1, RemoteOps: []int{1}},
		"3 Node, Write":     {LocalOps: 1, RemoteOps: []int{1, 1}, Write: true},
	}
	for want, b := range cases {
		if got := CommitClass(b); got != want {
			t.Errorf("CommitClass(%+v) = %q, want %q", b, got, want)
		}
	}
}

func TestImprovedCountsDropKernelMessages(t *testing.T) {
	var total stats.Counts
	total[simclock.SmallMsg] = 10
	total[simclock.Datagram] = 4
	total[simclock.StableWrite] = 3
	b := Benchmark{Name: "x", LocalOps: 1, RemoteOps: []int{1}, Write: true}
	improved := improvedCounts(total, 4, b)
	if improved[simclock.SmallMsg] != 6 {
		t.Errorf("small msgs %v", improved[simclock.SmallMsg])
	}
	// 2-node write: commit round (1 datagram) + ack (1) leave the path;
	// one participant force overlaps.
	if improved[simclock.Datagram] != 2 {
		t.Errorf("datagrams %v", improved[simclock.Datagram])
	}
	if improved[simclock.StableWrite] != 2 {
		t.Errorf("stable writes %v", improved[simclock.StableWrite])
	}
	// Read-only benchmarks keep their commit counts.
	ro := Benchmark{Name: "y", LocalOps: 1, RemoteOps: []int{1}}
	improvedRO := improvedCounts(total, 0, ro)
	if improvedRO[simclock.Datagram] != 4 {
		t.Errorf("read-only datagrams %v", improvedRO[simclock.Datagram])
	}
}

func TestProjectComposesColumns(t *testing.T) {
	var pre, com stats.Counts
	pre[simclock.DataServerCall] = 1
	pre[simclock.SmallMsg] = 4
	com[simclock.SmallMsg] = 5
	r := Result{
		Benchmark: Benchmark{Name: "1 Local Read, No Paging", LocalOps: 1},
		PreCommit: pre,
		Commit:    com,
	}
	p := Project(r, 0)
	// predicted = 26.1 + 9×3.0 = 53.1, matching the paper's 53.
	if p.PredictedMs < 53 || p.PredictedMs > 53.2 {
		t.Errorf("predicted %v", p.PredictedMs)
	}
	if p.ProcessMs != 41 {
		t.Errorf("process %v", p.ProcessMs)
	}
	if p.ElapsedMs != p.PredictedMs+41 {
		t.Errorf("elapsed %v", p.ElapsedMs)
	}
	if p.NewPrimMs >= p.ElapsedMs {
		t.Errorf("new-primitive projection %v not faster than %v", p.NewPrimMs, p.ElapsedMs)
	}
}

func TestSingleNodeEnvRunsLocalBenchmarks(t *testing.T) {
	env, err := NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	r, err := env.Measure(Benchmark{Name: "1 Local Read, No Paging", LocalOps: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.PreCommit[simclock.DataServerCall] != 1 {
		t.Errorf("data server calls %v", r.PreCommit[simclock.DataServerCall])
	}
	if r.Commit[simclock.StableWrite] != 0 {
		t.Errorf("read-only stable writes %v", r.Commit[simclock.StableWrite])
	}
	// A multi-node benchmark must be rejected in a 1-node env.
	if err := env.RunOnce(Benchmark{Name: "x", LocalOps: 1, RemoteOps: []int{1}}); err == nil {
		t.Error("2-node benchmark ran in a 1-node environment")
	}
}

func TestTableFormattersProduceOutput(t *testing.T) {
	env, err := NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var results []Result
	for _, b := range Paper14()[:2] {
		r, err := env.Measure(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	for name, s := range map[string]string{
		"5-2": Table52(results),
		"5-3": Table53(results),
		"5-4": Table54(results),
		"5-5": Table55(),
	} {
		if len(s) < 100 {
			t.Errorf("table %s suspiciously short: %q", name, s)
		}
	}
}

// TestTables52And53MatchGolden regenerates Tables 5-2 and 5-3 on the
// three-node environment exactly as `tabsbench tables -table 5-2` and
// `-table 5-3` do (ten measured transactions per benchmark) and compares
// them byte for byte with the files checked in under testdata. The counts
// are deterministic — the paging benchmarks draw from a fixed seed — so any
// difference is a change in how many primitives a transaction costs, which
// a PR must either avoid or explain by regenerating the golden files.
func TestTables52And53MatchGolden(t *testing.T) {
	env, err := NewEnv(3)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	results, err := env.MeasureAll(10)
	if err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string]string{
		"testdata/table52.golden": Table52(results),
		"testdata/table53.golden": Table53(results),
	} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs\n--- got ---\n%s--- want ---\n%s", file, got, want)
		}
	}
}

// Package bench implements the paper's Section 5 performance methodology:
// the fourteen benchmark transactions of Tables 5-2 and 5-4, the primitive
// counting they are analyzed with, and the projections of Section 5.3.
//
// The benchmarks are deliberately "as simple as possible consistent with
// their forming a basis for estimating the performance of other
// transactions" (§5.1): read or write transactions against integer array
// servers, local and remote, with no paging, sequential paging, or random
// paging. Each run instruments every node's primitive operations in two
// scopes — pre-commit (Table 5-2) and commit (Table 5-3) — and multiplies
// the counts by a cost model to regenerate the "System Time Predicted by
// Primitives" column of Table 5-4.
package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tabs/internal/core"
	"tabs/internal/servers/intarray"
	"tabs/internal/simclock"
	"tabs/internal/stats"
	"tabs/internal/types"
	"tabs/internal/workload"
)

// Paging selects the benchmark's access pattern.
type Paging int

// Access patterns of the paper's benchmarks.
const (
	NoPaging Paging = iota
	SeqPaging
	RandomPaging
)

// String names the paging mode as the paper abbreviates it.
func (p Paging) String() string {
	switch p {
	case SeqPaging:
		return "Seq. Paging"
	case RandomPaging:
		return "Random Paging"
	default:
		return "No Paging"
	}
}

// Benchmark describes one benchmark transaction shape.
type Benchmark struct {
	// Name is the paper's row label.
	Name string
	// LocalOps and RemoteOps give the operation count on the local node
	// and on each remote node (len(RemoteOps) = number of remote nodes).
	LocalOps  int
	RemoteOps []int
	// Write selects update transactions; otherwise read-only.
	Write bool
	// Paging selects the access pattern on every node.
	Paging Paging
}

// Nodes returns how many nodes the benchmark involves.
func (b Benchmark) Nodes() int { return 1 + len(b.RemoteOps) }

// Paper14 returns the fourteen benchmarks of Table 5-4, in table order.
func Paper14() []Benchmark {
	return []Benchmark{
		{Name: "1 Local Read, No Paging", LocalOps: 1},
		{Name: "5 Local Read, No Paging", LocalOps: 5},
		{Name: "1 Local Read, Seq. Paging", LocalOps: 1, Paging: SeqPaging},
		{Name: "1 Local Read, Random Paging", LocalOps: 1, Paging: RandomPaging},
		{Name: "1 Local Write, No Paging", LocalOps: 1, Write: true},
		{Name: "5 Local Write, No Paging", LocalOps: 5, Write: true},
		{Name: "1 Local Write, Seq. Paging", LocalOps: 1, Write: true, Paging: SeqPaging},
		{Name: "1 Lcl Rd, 1 Rem Rd, No Page", LocalOps: 1, RemoteOps: []int{1}},
		{Name: "1 Lcl Rd, 5 Rem Rd, No Page", LocalOps: 1, RemoteOps: []int{5}},
		{Name: "1 Lcl Rd, 1 Rem Rd, Seq. Page", LocalOps: 1, RemoteOps: []int{1}, Paging: SeqPaging},
		{Name: "1 Lcl Wr, 1 Rem Wr, No Page", LocalOps: 1, RemoteOps: []int{1}, Write: true},
		{Name: "1 Lcl Wr, 1 Rem Wr, Seq. Page", LocalOps: 1, RemoteOps: []int{1}, Write: true, Paging: SeqPaging},
		{Name: "1 Lcl Rd, 1 Rem Rd, 1 Rem Rd, NP", LocalOps: 1, RemoteOps: []int{1, 1}},
		{Name: "1 Lcl Wr, 1 Rem Wr, 1 Rem Wr, NP", LocalOps: 1, RemoteOps: []int{1, 1}, Write: true},
	}
}

// Array geometry for the paging benchmarks: the paper's array is 5000
// pages, "more than three times the available physical memory" (§5.1).
const (
	ArrayPages   = 5000
	PoolPages    = 1500
	cellsPerPage = types.PageSize / intarray.CellSize
	ArrayCells   = ArrayPages * cellsPerPage
)

// Env is a benchmark environment: up to three nodes, an integer array
// server on each.
type Env struct {
	Cluster *core.Cluster
	nodes   []types.NodeID
	clients []*intarray.Client // index 0 = local
	seqPage []uint32           // per-node cursor for sequential paging
	rng     *rand.Rand
}

// NewEnv boots a cluster of n nodes with one array server each, sized for
// the paging benchmarks.
func NewEnv(n int) (*Env, error) {
	names := []types.NodeID{"node1", "node2", "node3"}[:n]
	fx, err := workload.Boot(workload.Options{
		Cluster: core.ClusterOptions{
			DiskSectors: ArrayPages + 4096,
			LogSectors:  2048,
			PoolPages:   PoolPages,
			// Checkpoints would perturb steady-state counts; keep them rare.
			CheckpointEvery: 1 << 30,
			LockTimeout:     5 * time.Second,
		},
		Nodes:  names,
		Attach: workload.IntArray("array", ArrayCells, 5*time.Second),
	})
	if err != nil {
		return nil, err
	}
	env := &Env{Cluster: fx.Cluster, nodes: names, seqPage: make([]uint32, n), rng: rand.New(rand.NewSource(42))}
	for _, name := range names {
		env.clients = append(env.clients, intarray.NewClient(env.Local(), name, "array"))
	}
	return env, nil
}

// Close shuts the environment down.
func (e *Env) Close() { e.Cluster.Shutdown() }

// Local returns the local (application) node.
func (e *Env) Local() *core.Node { return e.Cluster.Node(e.nodes[0]) }

// cell picks the array cell for one operation under the paging mode on
// node idx. The no-paging cell is fixed (and pre-warmed); sequential
// paging advances one page per transaction, independently per node, so
// each node's disk sees a sequential fault stream as the paper's per-node
// arrays did; random paging draws a page at random.
func (e *Env) cell(idx int, p Paging) uint32 {
	switch p {
	case SeqPaging:
		e.seqPage[idx] = (e.seqPage[idx] + 1) % ArrayPages
		return e.seqPage[idx]*cellsPerPage + 1
	case RandomPaging:
		return uint32(e.rng.Intn(ArrayPages))*cellsPerPage + 1
	default:
		return 1
	}
}

// RunOnce executes one benchmark transaction and returns whether it
// committed.
func (e *Env) RunOnce(b Benchmark) error {
	if b.Nodes() > len(e.clients) {
		return fmt.Errorf("bench: %q needs %d nodes, environment has %d", b.Name, b.Nodes(), len(e.clients))
	}
	local := e.Local()
	reg := e.Cluster.Registry
	tid, err := local.App.BeginTransaction(types.NilTransID)
	if err != nil {
		return err
	}
	do := func(idx int, client *intarray.Client, ops int) error {
		for i := 0; i < ops; i++ {
			cell := e.cell(idx, b.Paging)
			if b.Write {
				if err := client.Set(tid, cell, int64(i)+1); err != nil {
					return err
				}
			} else {
				if _, err := client.Get(tid, cell); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := do(0, e.clients[0], b.LocalOps); err != nil {
		_ = local.App.AbortTransaction(tid)
		return err
	}
	for r, ops := range b.RemoteOps {
		if err := do(1+r, e.clients[1+r], ops); err != nil {
			_ = local.App.AbortTransaction(tid)
			return err
		}
	}
	// Everything from here is the commit protocol (Table 5-3 scope).
	reg.SetPhaseAll(stats.Commit)
	committed, err := local.App.EndTransaction(tid)
	reg.SetPhaseAll(stats.PreCommit)
	if err != nil {
		return err
	}
	if !committed {
		return fmt.Errorf("bench: %q transaction aborted", b.Name)
	}
	return nil
}

// Result is one benchmark's measurement.
type Result struct {
	Benchmark Benchmark
	// PreCommit and Commit are per-transaction primitive counts summed
	// over every node, averaged across iterations.
	PreCommit stats.Counts
	Commit    stats.Counts
	// KernelSmall is the portion of the small-message count that belongs
	// to the kernel pager protocol (per transaction); the Improved TABS
	// Architecture projection eliminates exactly these (§5.3).
	KernelSmall float64
	// WallNs is the real (Go implementation) time per transaction.
	WallNs float64
	// Iterations actually measured.
	Iterations int
}

// Total returns pre-commit plus commit counts.
func (r Result) Total() stats.Counts { return r.PreCommit.Add(r.Commit) }

// PredictMs applies the paper's prediction: counts × primitive times.
func (r Result) PredictMs(m *simclock.CostModel) float64 {
	return r.Total().Predict(m)
}

// Measure runs b for iters transactions (after warm-up) and returns the
// averaged counts. Warm-up performs the benchmark once to populate the
// buffer pool and session state, then counters reset — matching the
// paper's discarding of starting transients (§5.2).
func (e *Env) Measure(b Benchmark, iters int) (Result, error) {
	if iters <= 0 {
		iters = 10
	}
	// Warm-up discards starting transients (§5.2). Paging benchmarks must
	// reach steady state — the buffer pool full, evictions (and for write
	// benchmarks, dirty-page steals with their pager-protocol traffic)
	// happening every transaction — so they warm until the pool has
	// turned over.
	warm := 1
	if b.Paging != NoPaging {
		warm = PoolPages + 64
	}
	for i := 0; i < warm; i++ {
		if err := e.RunOnce(b); err != nil {
			return Result{}, fmt.Errorf("bench: warm-up of %q: %w", b.Name, err)
		}
	}
	e.Cluster.Registry.ResetAll()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := e.RunOnce(b); err != nil {
			return Result{}, fmt.Errorf("bench: iteration %d of %q: %w", i, b.Name, err)
		}
	}
	elapsed := time.Since(start)
	pre := e.Cluster.Registry.TotalCounts(stats.PreCommit).Scale(1 / float64(iters))
	com := e.Cluster.Registry.TotalCounts(stats.Commit).Scale(1 / float64(iters))
	var kernelSmall float64
	for _, phase := range []stats.Phase{stats.PreCommit, stats.Commit} {
		for name, counts := range e.Cluster.Registry.NamedCounts(phase) {
			if strings.HasSuffix(name, "/kernel") {
				kernelSmall += counts[simclock.SmallMsg]
			}
		}
	}
	return Result{
		Benchmark:   b,
		PreCommit:   pre,
		Commit:      com,
		KernelSmall: kernelSmall / float64(iters),
		WallNs:      float64(elapsed.Nanoseconds()) / float64(iters),
		Iterations:  iters,
	}, nil
}

// MeasureAll measures every benchmark that fits the environment's node
// count.
func (e *Env) MeasureAll(iters int) ([]Result, error) {
	var out []Result
	for _, b := range Paper14() {
		if b.Nodes() > len(e.clients) {
			continue
		}
		r, err := e.Measure(b, iters)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

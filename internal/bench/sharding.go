package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"tabs/internal/core"
	"tabs/internal/servers/intarray"
	"tabs/internal/types"
	"tabs/internal/workload"
)

// This file measures the scale-out claim of the sharded namespace: with
// locality-aware placement (every node serves one shard of the array, and
// workers run on the node that owns their keys) and the cached lock-free
// routing path, transaction throughput should grow near-linearly with
// node count as long as the multi-shard ratio stays low — the thesis of
// "distributed transactions can scale" reproduced in miniature on the
// paper's tree-structured 2PC.
//
// The cluster is in-process, so node count cannot buy CPU parallelism on
// a small machine; what it buys is I/O parallelism, which is exactly what
// the claim is about. A scaled-sleep IO hook turns each node's virtual
// disk milliseconds into real wall time — N nodes
// force their logs on N disks concurrently, while a single node funnels
// every commit through one. The hook is installed after warm-up, so
// paging and routing-cache fills stay off the measured path; steady-state
// lookups must then be pure cache hits with zero broadcasts, which each
// point asserts and reports.

// shardIOSleepPerVirtualMs scales the sharding sweep's disks. It is
// deliberately heavy: the measured regime should be disk-bound on every
// node (the scale-out resource), not CPU-bound, even with all nodes
// sharing one machine.
const shardIOSleepPerVirtualMs = 500 * time.Microsecond

// minIOSleep floors the scaled sleep for one physical IO: sub-quantum
// virtual latencies would otherwise multiply out to a zero Duration, and
// the cheapest IOs would be free.
const minIOSleep = time.Microsecond

// ShardingPoint is one (node count, multi-shard ratio) cell of the sweep.
// TxnsPerSec is the median of Runs runs; Samples ride along.
type ShardingPoint struct {
	Nodes           int       `json:"nodes"`
	MultiShardRatio float64   `json:"multi_shard_ratio"`
	Committed       int       `json:"committed"`
	MultiShardTxns  int       `json:"multi_shard_txns"`
	ElapsedNs       int64     `json:"elapsed_ns"`
	TxnsPerSec      float64   `json:"txns_per_sec"`
	Runs            int       `json:"runs,omitempty"`
	Samples         []float64 `json:"samples_txns_per_sec,omitempty"`
	// CacheHitRate is hits/(hits+misses) of the routing cache over the
	// measured phase, summed across nodes; SteadyBroadcasts counts lookup
	// broadcasts in the same window (zero when the cache is doing its
	// job — warm-up resolutions are excluded by taking deltas).
	CacheHitRate     float64 `json:"cache_hit_rate"`
	SteadyBroadcasts float64 `json:"steady_broadcasts"`
	// MeanCommitChildren is the commit tree's mean fan-out: 0 for pure
	// single-shard workloads, rising with the multi-shard ratio but never
	// toward "all shards" — the tree holds touched shards only.
	MeanCommitChildren float64 `json:"mean_commit_children"`
	// SpeedupVs1Node compares against the 1-node point at the same ratio.
	SpeedupVs1Node float64 `json:"speedup_vs_1_node,omitempty"`
}

// ShardingResult is the full sweep, for BENCH_sharding.json.
type ShardingResult struct {
	Keys                  uint64          `json:"keys"`
	WorkersPerNode        int             `json:"workers_per_node"`
	TxnsPerWorker         int             `json:"txns_per_worker"`
	Runs                  int             `json:"runs"`
	IOSleepNsPerVirtualMs int64           `json:"io_sleep_ns_per_virtual_ms"`
	Points                []ShardingPoint `json:"points"`
}

// shardingWorker precomputes one worker's key set. Worker s of node i
// owns two cells of page s on its home shard and one cell of page W+s on
// the next shard, reserved for its cross-shard writes — all private, so
// workloads conflict nowhere and measure the infrastructure, not lock
// queueing.
type shardingWorker struct {
	node   *core.Node
	client *intarray.ShardedClient
	localA uint64 // home-shard key, first cell of the worker's page
	localB uint64 // home-shard key, second cell of the same page
	remote uint64 // next shard's key reserved for this worker
}

// shardingKey maps (shard, local 0-based cell) to the global key under
// the identity-modulo placement: key = cell*shards + shard.
func shardingKey(shard, shards, cell int) uint64 {
	return uint64(cell)*uint64(shards) + uint64(shard)
}

// measureShardingPoint boots nodes fresh nodes, shards keys cells across
// them, homes workersPerNode workers on every node, and measures txns
// transactions per worker with the given deterministic multi-shard mix.
func measureShardingPoint(nodes int, keys uint64, workersPerNode, txns int, ratio float64) (ShardingPoint, error) {
	pt := ShardingPoint{Nodes: nodes, MultiShardRatio: ratio}
	// Per shard the workers use 2*workersPerNode pages; the shard must
	// have at least that many cells.
	minKeys := uint64(nodes) * uint64(2*workersPerNode*cellsPerPage)
	if keys < minKeys {
		return pt, fmt.Errorf("bench: sharding needs >= %d keys for %d nodes x %d workers, got %d", minKeys, nodes, workersPerNode, keys)
	}
	names := nodeNames(nodes)
	cluster, err := workload.Boot(workload.Options{
		Cluster: core.ClusterOptions{
			DiskSectors:     footprintSectors(keys, nodes),
			LogSectors:      8192,
			PoolPages:       512,
			CheckpointEvery: 1 << 30,
			LockTimeout:     10 * time.Second,
		},
		Nodes: names,
		Shared: func(c *core.Cluster) error {
			_, err := intarray.AttachSharded(c, "array", keys, 10*time.Second)
			return err
		},
	})
	if err != nil {
		return pt, err
	}
	defer cluster.Shutdown()

	// Home the workers: node i's workers route through a client built on
	// node i, so their single-shard transactions never leave the node.
	workers := make([]shardingWorker, 0, nodes*workersPerNode)
	for i, name := range names {
		node := cluster.Node(name)
		client, err := intarray.NewShardedClient(node, "array")
		if err != nil {
			return pt, err
		}
		for s := 0; s < workersPerNode; s++ {
			workers = append(workers, shardingWorker{
				node:   node,
				client: client,
				localA: shardingKey(i, nodes, s*cellsPerPage),
				localB: shardingKey(i, nodes, s*cellsPerPage+1),
				remote: shardingKey((i+1)%nodes, nodes, (workersPerNode+s)*cellsPerPage),
			})
		}
	}

	// One transaction = two SetCells. Single-shard: both on the home
	// shard. Multi-shard: the second lands on the next shard, pulling its
	// home into the commit tree. The mix is deterministic in the txn
	// index, so every run at a ratio does identical work.
	multiEvery := 0
	if ratio > 0 {
		multiEvery = int(1.0/ratio + 0.5)
	}
	run := func(w *shardingWorker, seq int) (bool, error) {
		multi := multiEvery > 0 && seq%multiEvery == 0
		err := w.node.App.Run(func(tid types.TransID) error {
			if err := w.client.Set(tid, w.localA, int64(seq)); err != nil {
				return err
			}
			second := w.localB
			if multi {
				second = w.remote
			}
			return w.client.Set(tid, second, int64(seq))
		})
		return multi, err
	}

	// Warm-up: fault in every worker's pages (home and remote), populate
	// the routing caches, and fill per-transaction session state.
	for i := range workers {
		if _, err := run(&workers[i], 0); err != nil {
			return pt, fmt.Errorf("warm-up worker %d: %w", i, err)
		}
		if multiEvery > 0 {
			if _, err := run(&workers[i], multiEvery); err != nil {
				return pt, fmt.Errorf("warm-up worker %d (multi): %w", i, err)
			}
		}
	}

	// Measured run against scaled-latency disks, one per node, installed
	// only now so warm-up stays cheap.
	for _, name := range names {
		cluster.Node(name).Disk().SetIOHook(func(ms float64, _ bool) {
			d := time.Duration(ms * float64(shardIOSleepPerVirtualMs))
			if d < minIOSleep {
				d = minIOSleep
			}
			//tabslint:ignore sleepsync this sleep IS the latency model: it converts virtual disk milliseconds to wall time so per-node I/O parallelism is measurable
			time.Sleep(d)
		})
	}
	defer func() {
		for _, name := range names {
			cluster.Node(name).Disk().SetIOHook(nil)
		}
	}()
	before := shardingCounters(cluster.Cluster, names)

	errs := make([]error, len(workers))
	multiCounts := make([]int, len(workers))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := 1; seq <= txns; seq++ {
				multi, err := run(&workers[i], seq)
				if err != nil {
					errs[i] = fmt.Errorf("worker %d txn %d: %w", i, seq, err)
					return
				}
				if multi {
					multiCounts[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return pt, err
		}
	}
	after := shardingCounters(cluster.Cluster, names)

	pt.Committed = len(workers) * txns
	for _, m := range multiCounts {
		pt.MultiShardTxns += m
	}
	pt.ElapsedNs = elapsed.Nanoseconds()
	pt.TxnsPerSec = float64(pt.Committed) / elapsed.Seconds()
	hits := after.hits - before.hits
	misses := after.misses - before.misses
	if hits+misses > 0 {
		pt.CacheHitRate = hits / (hits + misses)
	}
	pt.SteadyBroadcasts = after.broadcasts - before.broadcasts
	if dc := after.childrenCount - before.childrenCount; dc > 0 {
		pt.MeanCommitChildren = (after.childrenSum - before.childrenSum) / dc
	}
	return pt, nil
}

// nodeNames names n nodes n01, n02, ...
func nodeNames(n int) []types.NodeID {
	names := make([]types.NodeID, n)
	for i := range names {
		names[i] = types.NodeID(fmt.Sprintf("n%02d", i+1))
	}
	return names
}

// footprintSectors sizes a node's disk for its shard of the array plus
// the log region and headroom.
func footprintSectors(keys uint64, nodes int) int64 {
	shardPages := int64(keys/uint64(nodes))/int64(cellsPerPage) + 2
	s := shardPages + 8192 + 64
	if s < 16384 {
		s = 16384
	}
	return s
}

// shardingCounterState sums the resolution and commit-tree metrics across
// the cluster; point measurements take deltas across the measured phase.
type shardingCounterState struct {
	hits, misses, broadcasts float64
	childrenSum              float64
	childrenCount            float64
}

func shardingCounters(c *core.Cluster, names []types.NodeID) shardingCounterState {
	var st shardingCounterState
	for _, name := range names {
		m := c.Node(name).MetricsSnapshot()
		st.hits += m["ns.lookup.cache_hits"].Value
		st.misses += m["ns.lookup.cache_misses"].Value
		st.broadcasts += m["ns.lookup.broadcasts"].Value
		if h, ok := m["txn.commit.children"]; ok {
			st.childrenSum += h.Sum
			st.childrenCount += float64(h.Count)
		}
	}
	return st
}

// MeasureSharding sweeps node counts 1, 2, 4, ... maxNodes at a pure
// single-shard mix and at the given multi-shard ratio, runs runs per
// point, and reports medians with per-run samples plus each point's
// speedup over the 1-node point at the same ratio.
func MeasureSharding(maxNodes int, keys uint64, workersPerNode, txnsPerWorker, runs int, ratio float64) (*ShardingResult, error) {
	if maxNodes < 1 {
		maxNodes = 8
	}
	if keys == 0 {
		keys = 1 << 20
	}
	if workersPerNode <= 0 {
		workersPerNode = 4
	}
	if txnsPerWorker <= 0 {
		txnsPerWorker = 200
	}
	if runs <= 0 {
		runs = 3
	}
	res := &ShardingResult{
		Keys:                  keys,
		WorkersPerNode:        workersPerNode,
		TxnsPerWorker:         txnsPerWorker,
		Runs:                  runs,
		IOSleepNsPerVirtualMs: shardIOSleepPerVirtualMs.Nanoseconds(),
	}
	ratios := []float64{0}
	if ratio > 0 {
		ratios = append(ratios, ratio)
	}
	for nodes := 1; nodes <= maxNodes; nodes *= 2 {
		for _, r := range ratios {
			// Keep the median run's point, annotated with every sample.
			pt, samples, err := workload.MedianRun(runs, func() (ShardingPoint, error) {
				return measureShardingPoint(nodes, keys, workersPerNode, txnsPerWorker, r)
			}, func(pt ShardingPoint) float64 { return pt.TxnsPerSec })
			if err != nil {
				return nil, fmt.Errorf("bench: sharding at %d nodes ratio %g: %w", nodes, r, err)
			}
			pt.Runs, pt.Samples = runs, samples
			res.Points = append(res.Points, pt)
		}
	}
	for i := range res.Points {
		pt := &res.Points[i]
		if base := res.point(1, pt.MultiShardRatio); base != nil && base.TxnsPerSec > 0 {
			pt.SpeedupVs1Node = pt.TxnsPerSec / base.TxnsPerSec
		}
	}
	return res, nil
}

// point finds the sweep cell for (nodes, ratio), or nil.
func (r *ShardingResult) point(nodes int, ratio float64) *ShardingPoint {
	for i := range r.Points {
		if r.Points[i].Nodes == nodes && r.Points[i].MultiShardRatio == ratio {
			return &r.Points[i]
		}
	}
	return nil
}

// FormatSharding renders the sweep as a text table.
func FormatSharding(r *ShardingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded namespace: 1->N scale-out (%d keys, %d workers/node, %d txns/worker, median of %d)\n",
		r.Keys, r.WorkersPerNode, r.TxnsPerWorker, r.Runs)
	fmt.Fprintf(&b, "%-6s %-8s %10s %9s %9s %10s %9s\n",
		"nodes", "mix", "txns/s", "speedup", "hit rate", "bcasts", "children")
	line := strings.Repeat("-", 68)
	fmt.Fprintln(&b, line)
	for _, pt := range r.Points {
		mix := "local"
		if pt.MultiShardRatio > 0 {
			mix = fmt.Sprintf("%g%% 2PC", pt.MultiShardRatio*100)
		}
		speedup := "-"
		if pt.SpeedupVs1Node > 0 {
			speedup = fmt.Sprintf("%.2fx", pt.SpeedupVs1Node)
		}
		fmt.Fprintf(&b, "%-6d %-8s %10.0f %9s %8.1f%% %10.0f %9.3f\n",
			pt.Nodes, mix, pt.TxnsPerSec, speedup,
			pt.CacheHitRate*100, pt.SteadyBroadcasts, pt.MeanCommitChildren)
	}
	fmt.Fprintln(&b, line)
	fmt.Fprintln(&b, "speedup compares against the 1-node point at the same mix; bcasts counts")
	fmt.Fprintln(&b, "steady-state lookup broadcasts (0 = every route answered from cache);")
	fmt.Fprintln(&b, "children is the commit tree's mean fan-out (touched shards only).")
	return b.String()
}

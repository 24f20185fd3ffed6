package bench

// This file measures what online shard migration costs the clients that
// live through it: a cluster serves a steady write workload, one shard is
// migrated to another node mid-run, and the recorded throughput series
// shows the dip (the quiesce holds the shard's locks while its pages
// stream to the destination) and the recovery (redirected traffic lands
// on the new home). The acceptance bar is the tentpole's: zero failed
// transactions — every write that hits the moving shard retries through
// the redirect and commits.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tabs/internal/core"
	"tabs/internal/servers/intarray"
	"tabs/internal/types"
	"tabs/internal/workload"
)

// MigrationBucket is one time slice of the throughput series.
type MigrationBucket struct {
	TMs  int64 `json:"t_ms"` // bucket start, relative to workload start
	Txns int64 `json:"txns"` // transactions committed in the bucket
}

// MigrationResult records one migrate-under-load run, for
// BENCH_migration.json.
type MigrationResult struct {
	Nodes   int    `json:"nodes"`
	Keys    uint64 `json:"keys"`
	Workers int    `json:"workers"`

	Shard            int     `json:"shard"`
	From             string  `json:"from"`
	To               string  `json:"to"`
	PagesMoved       uint32  `json:"pages_moved"`
	BytesMoved       uint64  `json:"bytes_moved"`
	PlacementVersion uint64  `json:"placement_version"`
	MigrationMs      float64 `json:"migration_ms"`

	BaselineTps float64 `json:"baseline_txns_per_sec"`
	DuringTps   float64 `json:"during_txns_per_sec"`
	AfterTps    float64 `json:"after_txns_per_sec"`
	DipRatio    float64 `json:"dip_ratio"` // during/baseline; 1.0 = no dip

	Redirects      int64   `json:"redirected_calls"` // router.redirect across nodes
	RedirectMeanMs float64 `json:"redirect_mean_ms"` // re-resolve + retry latency
	RedirectMaxMs  float64 `json:"redirect_max_ms"`
	FailedTxns     int64   `json:"failed_txns"` // must be 0

	BucketMs       int64             `json:"bucket_ms"`
	MigrateStartMs float64           `json:"migrate_start_ms"`
	MigrateEndMs   float64           `json:"migrate_end_ms"`
	Buckets        []MigrationBucket `json:"buckets"`
}

// MeasureMigration runs the migrate-under-load benchmark: workers spread
// over every node write through sharded clients for phase, shard 0
// migrates to the next node, and the workload runs phase longer. The
// throughput series is sampled in bucketMs slices throughout.
func MeasureMigration(nodes int, keys uint64, workers int, phase time.Duration) (*MigrationResult, error) {
	if nodes < 2 {
		nodes = 3
	}
	if keys == 0 {
		keys = 1 << 16
	}
	if workers <= 0 {
		workers = 4
	}
	if phase <= 0 {
		phase = 600 * time.Millisecond
	}
	const bucketMs = 50
	res := &MigrationResult{Nodes: nodes, Keys: keys, Workers: workers, BucketMs: bucketMs}

	names := nodeNames(nodes)
	cluster, err := workload.Boot(workload.Options{
		Cluster: core.ClusterOptions{
			DiskSectors:     2 * footprintSectors(keys, nodes),
			LogSectors:      8192,
			PoolPages:       512,
			CheckpointEvery: 1 << 30,
			LockTimeout:     time.Second,
		},
		Nodes: names,
		Shared: func(c *core.Cluster) error {
			_, err := intarray.AttachSharded(c, "array", keys, time.Second)
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Shutdown()
	p := cluster.Placement("array")
	res.Shard = 0
	res.From = string(p.Shards[0].Node)
	dest := p.Shards[1%p.NumShards()].Node
	res.To = string(dest)

	// Workers own disjoint key sets spanning every shard; worker w runs on
	// node w%nodes, so traffic reaches the moving shard from every node's
	// routing cache (each one must notice the move, not just the driver's).
	// Redirects are invisible at this level by design — the router absorbs
	// a shard-moved failure by re-resolving and retrying — so the redirect
	// evidence comes from the router.redirect metrics below, and the only
	// client-visible events are aborts at the quiesce (retried here).
	var commits, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		node := cluster.Node(names[w%nodes])
		client, err := intarray.NewShardedClient(node, "array")
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(w int, node *core.Node, client *intarray.ShardedClient) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := (uint64(w) + uint64(i)*uint64(workers)) % keys
				// The migration's quiesce releases on its own clock; retry
				// through it.
				if workload.RetryUntil(time.Now().Add(10*time.Second), 2*time.Millisecond, func() error {
					return node.App.Run(func(tid types.TransID) error {
						return client.Set(tid, key, int64(i))
					})
				}) == nil {
					commits.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}(w, node, client)
	}

	// Throughput sampler: one bucket per bucketMs for the whole run.
	start := time.Now()
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		ticker := time.NewTicker(bucketMs * time.Millisecond)
		defer ticker.Stop()
		prev := int64(0)
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				cur := commits.Load()
				res.Buckets = append(res.Buckets, MigrationBucket{
					TMs:  int64(len(res.Buckets)) * bucketMs,
					Txns: cur - prev,
				})
				prev = cur
			}
		}
	}()

	//tabslint:ignore sleepsync load phase: the baseline throughput window
	time.Sleep(phase)
	preCommits := commits.Load()
	preT := time.Now()
	res.MigrateStartMs = float64(preT.Sub(start).Microseconds()) / 1e3
	// The move may lose the quiesce lock race with the workers; try again.
	var rep *core.MigrateReport
	if err := workload.RetryUntil(preT.Add(2*time.Second), 50*time.Millisecond, func() (err error) {
		rep, err = cluster.MigrateShard("array", res.Shard, dest)
		return err
	}); err != nil {
		close(stop)
		wg.Wait()
		return nil, fmt.Errorf("bench: migration never succeeded: %w", err)
	}
	postT := time.Now()
	postCommits := commits.Load()
	res.MigrateEndMs = float64(postT.Sub(start).Microseconds()) / 1e3
	res.MigrationMs = float64(postT.Sub(preT).Microseconds()) / 1e3
	res.PagesMoved = rep.Pages
	res.BytesMoved = rep.Bytes
	res.PlacementVersion = rep.Version
	//tabslint:ignore sleepsync load phase: the post-migration throughput window
	time.Sleep(phase)
	finalCommits := commits.Load()
	finalT := time.Now()
	close(stop)
	wg.Wait()
	<-sampleDone

	res.BaselineTps = float64(preCommits) / preT.Sub(start).Seconds()
	if d := postT.Sub(preT).Seconds(); d > 0 {
		res.DuringTps = float64(postCommits-preCommits) / d
	}
	res.AfterTps = float64(finalCommits-postCommits) / finalT.Sub(postT).Seconds()
	if res.BaselineTps > 0 {
		res.DipRatio = res.DuringTps / res.BaselineTps
	}
	res.FailedTxns = failed.Load()

	// Redirect evidence from the router metrics: every node whose router
	// hit the moved shard re-resolved and retried, counting one redirect
	// and recording the repair latency.
	var rsum, rmax float64
	var rcount uint64
	for _, name := range names {
		m := cluster.Node(name).MetricsSnapshot()
		res.Redirects += int64(m["router.redirect"].Value)
		if h, ok := m["router.redirect.ms"]; ok {
			rsum += h.Sum
			rcount += h.Count
			if h.Max > rmax {
				rmax = h.Max
			}
		}
	}
	if rcount > 0 {
		res.RedirectMeanMs = rsum / float64(rcount)
		res.RedirectMaxMs = rmax
	}
	if res.FailedTxns > 0 {
		return res, fmt.Errorf("bench: %d transactions failed outright during the migration (want 0)", res.FailedTxns)
	}
	return res, nil
}

// FormatMigration renders the run as text.
func FormatMigration(r *MigrationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online shard migration under load (%d nodes, %d keys, %d workers)\n", r.Nodes, r.Keys, r.Workers)
	line := strings.Repeat("-", 68)
	fmt.Fprintln(&b, line)
	fmt.Fprintf(&b, "moved       shard %d: %s -> %s (%d pages, %d bytes) in %.1f ms, placement v%d\n",
		r.Shard, r.From, r.To, r.PagesMoved, r.BytesMoved, r.MigrationMs, r.PlacementVersion)
	fmt.Fprintf(&b, "throughput  baseline %.0f txns/s, during %.0f, after %.0f (dip ratio %.2f)\n",
		r.BaselineTps, r.DuringTps, r.AfterTps, r.DipRatio)
	fmt.Fprintf(&b, "redirects   %d calls redirected; re-route latency mean %.2f ms, max %.2f ms\n",
		r.Redirects, r.RedirectMeanMs, r.RedirectMaxMs)
	fmt.Fprintf(&b, "failures    %d (zero means no transaction was lost to the move)\n", r.FailedTxns)
	fmt.Fprintln(&b, line)
	return b.String()
}

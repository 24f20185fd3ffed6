package fault

// Online-migration torture: a sharded integer array under continuous
// client load while the harness migrates shards between nodes and
// crash/reboots the data nodes underneath it. Unlike RunTorture, which
// aims probabilistic faults at a static deployment, this harness aims a
// *control-plane* adversity — placement churn — at live traffic, and
// demands the strongest property the migration design claims: no client
// transaction is ever lost or misrouted; at worst it retries.
//
// Topology: one dedicated application node ("app") that hosts every
// worker and never crashes, plus N data nodes ("d0".."dN-1") that host
// the shards and take all the abuse. Keeping the coordinator alive means
// EndTransaction's answer is the outcome, so the model never guesses.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tabs/internal/core"
	"tabs/internal/nameserver"
	"tabs/internal/servers/intarray"
	"tabs/internal/types"
	"tabs/internal/workload"
)

// MigrateOptions parameterize one online-migration torture run.
type MigrateOptions struct {
	Seed       int64
	Nodes      int    // data nodes hosting shards (minimum 2; default 3)
	Workers    int    // concurrent writers on the app node (default 4)
	Migrations int    // shard moves driven under load (default 6)
	Keys       uint64 // global key space of the sharded array (default 64)

	// CrashEvery crash+reboots a random data node after every k-th
	// migration: 0 means the default (every 2nd move), negative disables
	// crashes entirely.
	CrashEvery int

	// Logf, when set, receives progress lines (testing.T.Logf shape).
	Logf func(format string, args ...any)
}

// MigrateReport summarizes a run.
type MigrateReport struct {
	Seed         int64
	Nodes        int
	Workers      int
	Migrations   int
	Committed    int64 // worker transactions committed
	Retried      int64 // worker attempts that failed and were retried
	Redirects    int64 // retries caused by a shard-moved redirect
	Moves        int   // migrations completed
	Crashes      int
	Reboots      int
	FinalVersion uint64 // placement version after the last move
}

func (r *MigrateReport) String() string {
	return fmt.Sprintf("migrate torture seed=%d nodes=%d workers=%d committed=%d retried=%d redirects=%d moves=%d crashes=%d reboots=%d placement=v%d",
		r.Seed, r.Nodes, r.Workers, r.Committed, r.Retried, r.Redirects, r.Moves, r.Crashes, r.Reboots, r.FinalVersion)
}

const migrateFamily = "arr"

// migrateTorture is the run state.
type migrateTorture struct {
	opts   MigrateOptions
	fx     *workload.Fixture
	app    *core.Node
	model  *workload.Model
	data   []types.NodeID
	shards int
	lockTO time.Duration

	// hosted[node] is every shard that ever lived on the node. A reboot
	// must re-attach all of them, not just the currently-homed ones: a
	// shard migrated away leaves its segment (and log records touching
	// it) on the source disk, and recovery needs the segment attached.
	// The placement home check keeps such stale copies from serving.
	hosted map[types.NodeID]map[int]bool

	committed, retried, redirects atomic.Int64 // bumped by the workers

	rep MigrateReport
}

// shardedArray reaches the sharded array through one routing client.
type shardedArray struct{ sc *intarray.ShardedClient }

func (a shardedArray) Get(tid types.TransID, k workload.Key) (int64, error) {
	return a.sc.Get(tid, k.Cell)
}

func (a shardedArray) Set(tid types.TransID, k workload.Key, v int64) error {
	return a.sc.Set(tid, k.Cell, v)
}

// RunMigrate drives concurrent writers against a sharded array while
// migrating shards between data nodes (and crash/rebooting data nodes)
// and verifies the four recovery invariants of workload.Model.Verify,
// plus the migration-specific acceptance bar: zero worker transactions
// fail outright — every write commits, at worst after redirect retries.
func RunMigrate(opts MigrateOptions) (*MigrateReport, error) {
	if opts.Nodes < 2 {
		opts.Nodes = 3
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Migrations <= 0 {
		opts.Migrations = 6
	}
	if opts.Keys == 0 {
		opts.Keys = 64
	}
	if opts.CrashEvery == 0 {
		opts.CrashEvery = 2
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	mt := &migrateTorture{opts: opts, shards: opts.Nodes, lockTO: 500 * time.Millisecond,
		hosted: make(map[types.NodeID]map[int]bool)}
	mt.rep = MigrateReport{Seed: opts.Seed, Nodes: opts.Nodes, Workers: opts.Workers, Migrations: opts.Migrations}
	for i := 0; i < opts.Nodes; i++ {
		mt.data = append(mt.data, types.NodeID(fmt.Sprintf("d%d", i)))
	}

	// Shards live on the data nodes only; the app node is pure client.
	p, err := nameserver.ComputePlacement(migrateFamily, 1, mt.shards, mt.data)
	if err != nil {
		return nil, err
	}
	for i, sh := range p.Shards {
		mt.noteHosted(sh.Node, i)
	}
	copts := core.DefaultClusterOptions()
	copts.LogSectors = 4096
	copts.PoolPages = 128
	copts.LockTimeout = mt.lockTO
	mt.fx, err = workload.Boot(workload.Options{
		Cluster:       copts,
		Nodes:         append([]types.NodeID{"app"}, mt.data...),
		Attach:        mt.attachData,
		TortureTimers: true,
		Logf:          opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	defer mt.fx.Shutdown()
	mt.app = mt.fx.Node("app")
	if err := mt.fx.ApplyPlacement(p); err != nil {
		return nil, err
	}
	keys := make([]workload.Key, opts.Keys)
	for k := range keys {
		keys[k].Cell = uint64(k)
	}
	mt.model = mt.fx.NewModel(keys)

	// Workers own disjoint key sets (key % Workers == w), so each key has
	// exactly one sequential writer.
	stop := make(chan struct{})
	errs := make([]error, opts.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = mt.worker(w, stop)
		}(w)
	}

	driveErr := mt.drive(rand.New(rand.NewSource(opts.Seed)))
	close(stop)
	wg.Wait()

	mt.rep.Committed, mt.rep.Retried, mt.rep.Redirects = mt.committed.Load(), mt.retried.Load(), mt.redirects.Load()
	if fp := mt.fx.Placement(migrateFamily); fp != nil {
		mt.rep.FinalVersion = fp.Version
	}

	if driveErr != nil {
		return &mt.rep, mt.fail(driveErr)
	}
	// The acceptance bar: zero failed worker transactions.
	for w, err := range errs {
		if err != nil {
			return &mt.rep, mt.fail(fmt.Errorf("worker %d lost a transaction: %w", w, err))
		}
	}
	sc, err := intarray.NewShardedClient(mt.app, migrateFamily)
	if err != nil {
		return &mt.rep, mt.fail(err)
	}
	if err := mt.model.Verify(mt.app, shardedArray{sc}, 1<<41, time.Now().Add(30*time.Second)); err != nil {
		return &mt.rep, mt.fail(err)
	}
	return &mt.rep, nil
}

// fail wraps a violation with everything needed to reproduce it.
func (mt *migrateTorture) fail(err error) error {
	return fmt.Errorf("migrate torture: %w\nreproduce with seed=%d nodes=%d workers=%d migrations=%d keys=%d crash-every=%d",
		err, mt.opts.Seed, mt.opts.Nodes, mt.opts.Workers, mt.opts.Migrations, mt.opts.Keys, mt.opts.CrashEvery)
}

// worker writes its keys round-robin until stopped. Any write that cannot
// be made to commit is a harness failure — migrations must redirect
// traffic, never lose it. A migration in flight surfaces as lock waits,
// aborts at commit, or shard-moved redirects; a crashed data node as
// unreachable/timeout errors until its reboot — the application-level
// retry absorbs all of them.
func (mt *migrateTorture) worker(w int, stop <-chan struct{}) error {
	rng := rand.New(rand.NewSource(mt.opts.Seed ^ int64(0x5EED0+w)))
	sc, err := intarray.NewShardedClient(mt.app, migrateFamily)
	if err != nil {
		return err
	}
	// This worker's keys are those congruent to w modulo Workers.
	mine := (mt.opts.Keys - uint64(w) + uint64(mt.opts.Workers) - 1) / uint64(mt.opts.Workers)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		key := uint64(w) + uint64(i)%mine*uint64(mt.opts.Workers)
		write := []workload.Write{{Key: workload.Key{Cell: key}, Val: rng.Int63n(1 << 40)}}
		err := workload.RetryUntil(time.Now().Add(15*time.Second), 10*time.Millisecond, func() error {
			err := mt.model.Apply(mt.app, shardedArray{sc}, write)
			if err == nil {
				mt.committed.Add(1)
				return nil
			}
			mt.retried.Add(1)
			if isMovedErr(err) {
				mt.redirects.Add(1)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("key %d: write never committed: %w", key, err)
		}
	}
}

// isMovedErr reports whether err is (or carries across the wire as) a
// shard-moved redirect.
func isMovedErr(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, core.ErrShardMoved) || strings.Contains(err.Error(), core.ErrShardMoved.Error())
}

// drive performs the migration (and crash) schedule while the workers
// load the cluster.
func (mt *migrateTorture) drive(rng *rand.Rand) error {
	for m := 0; m < mt.opts.Migrations; m++ {
		//tabslint:ignore sleepsync let the workers build load on the pre-move placement between moves
		time.Sleep(120 * time.Millisecond)
		p := mt.fx.Placement(migrateFamily)
		if p == nil {
			return errors.New("placement vanished mid-run")
		}
		shard := m % mt.shards
		home := p.Shards[shard].Node
		dest := mt.data[rng.Intn(len(mt.data))]
		for dest == home {
			dest = mt.data[rng.Intn(len(mt.data))]
		}
		// The migration's quiesce races the workers for the shard's cell
		// locks; a loss aborts the migration transaction (never the
		// workers'), so just try again.
		if err := workload.RetryUntil(time.Now().Add(5*time.Second), 100*time.Millisecond, func() error {
			_, err := mt.fx.MigrateShard(migrateFamily, shard, dest)
			return err
		}); err != nil {
			return fmt.Errorf("move %d (%s#%d %s->%s) never succeeded: %w", m, migrateFamily, shard, home, dest, err)
		}
		mt.noteHosted(dest, shard)
		mt.rep.Moves++
		mt.opts.Logf("move %d: %s#%d %s -> %s (placement v%d)", m, migrateFamily, shard, home, dest, mt.fx.Placement(migrateFamily).Version)
		if mt.opts.CrashEvery > 0 && (m+1)%mt.opts.CrashEvery == 0 {
			// Crash a random data node and reboot it at once: volatile
			// state (locks, seals, unpublished placements) is lost, the
			// disk survives, and recovery plus the cluster's placement
			// re-install must bring the node back serving exactly its
			// current shards.
			name := mt.data[rng.Intn(len(mt.data))]
			mt.fx.Crash(name)
			mt.rep.Crashes++
			mt.opts.Logf("crash %s", name)
			if _, _, err := mt.fx.Reboot(name); err != nil {
				return err
			}
			mt.rep.Reboots++
		}
	}
	return nil
}

// noteHosted records that shard has a copy (live or migrated-away) on
// the named node.
func (mt *migrateTorture) noteHosted(name types.NodeID, shard int) {
	if mt.hosted[name] == nil {
		mt.hosted[name] = make(map[int]bool)
	}
	mt.hosted[name][shard] = true
}

// attachData attaches every shard that ever lived on n — recovery
// replays log records against their segments, so even a migrated-away
// copy must be attached (the home check keeps it from serving) — and
// registers n as a migration destination. The app node hosts nothing.
func (mt *migrateTorture) attachData(n *core.Node) error {
	if n.ID() == "app" {
		return nil
	}
	for shard := range mt.hosted[n.ID()] {
		if _, err := intarray.AttachShard(n, migrateFamily, shard, intarray.ShardCells(mt.opts.Keys, mt.shards, shard), mt.lockTO); err != nil {
			return err
		}
	}
	intarray.RegisterMigration(n, migrateFamily, mt.lockTO)
	return nil
}

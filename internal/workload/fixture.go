// Package workload is the one place the measuring and torture harnesses
// (internal/bench, internal/fault) boot clusters, issue client
// transactions, remember what those clients were told, and check the
// end state against it. A harness built on it keeps only its schedule:
// which faults, moves or sweep points happen when.
package workload

import (
	"fmt"
	"sort"
	"time"

	"tabs/internal/core"
	"tabs/internal/recovery"
	"tabs/internal/servers/intarray"
	"tabs/internal/types"
)

// Options describe the cluster a harness runs on.
type Options struct {
	Cluster core.ClusterOptions
	Nodes   []types.NodeID

	// Attach installs one node's data servers. Boot runs it on every node
	// before the node recovers and Reboot runs it again on the node it
	// restarts, so it must attach every segment the node's log may mention.
	Attach func(n *core.Node) error
	// Shared, when set, runs once at boot after every node exists and
	// before any recovers, for state that spans nodes (a sharded array and
	// its placement).
	Shared func(c *core.Cluster) error

	// TortureTimers runs every node on short vote, orphan and call timers,
	// so lost phase-2 datagrams and in-doubt transactions resolve within a
	// fault-injection run, not after it.
	TortureTimers bool

	// Logf, when set, receives progress lines (testing.T.Logf shape).
	Logf func(format string, args ...any)
}

// IntArray is the commonest Options.Attach: one integer array server named
// id, on segment 1, on every node.
func IntArray(id types.ServerID, cells uint32, lockTimeout time.Duration) func(*core.Node) error {
	return func(n *core.Node) error {
		_, err := intarray.Attach(n, id, 1, cells, lockTimeout)
		return err
	}
}

// IntArrays is the Store over IntArray's servers: Key.Node's array, reached
// by a client on node From.
type IntArrays struct {
	From *core.Node
	ID   types.ServerID
}

// Get implements Store.
func (a IntArrays) Get(tid types.TransID, k Key) (int64, error) {
	return intarray.NewClient(a.From, k.Node, a.ID).Get(tid, uint32(k.Cell))
}

// Set implements Store.
func (a IntArrays) Set(tid types.TransID, k Key, v int64) error {
	return intarray.NewClient(a.From, k.Node, a.ID).Set(tid, uint32(k.Cell), v)
}

// Fixture is a booted cluster that remembers how to boot its nodes again.
type Fixture struct {
	*core.Cluster
	opts Options
}

// Boot builds the cluster, attaches every node's servers and recovers
// every node.
func Boot(opts Options) (*Fixture, error) {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	c, err := core.NewCluster(opts.Cluster, opts.Nodes...)
	if err != nil {
		return nil, err
	}
	f := &Fixture{Cluster: c, opts: opts}
	if opts.Shared != nil {
		err = opts.Shared(c)
	}
	for i := 0; err == nil && i < len(opts.Nodes); i++ {
		_, err = f.start(c.Node(opts.Nodes[i]))
	}
	if err != nil {
		c.Shutdown()
		return nil, err
	}
	return f, nil
}

// start attaches n's servers, replays its log and sets its timers.
func (f *Fixture) start(n *core.Node) (*recovery.RestartReport, error) {
	if f.opts.Attach != nil {
		if err := f.opts.Attach(n); err != nil {
			return nil, fmt.Errorf("attaching servers on %s: %w", n.ID(), err)
		}
	}
	report, err := n.Recover()
	if err != nil {
		return nil, fmt.Errorf("recovering %s: %w", n.ID(), err)
	}
	if f.opts.TortureTimers {
		n.TM.Configure(75*time.Millisecond, 4, 300*time.Millisecond)
		n.CM.CallTimeout = 150 * time.Millisecond
		n.CM.Retries = 3
	}
	return report, nil
}

// Reboot restarts a crashed node over its surviving disk: servers
// re-attached, log replayed. A node that cannot be brought back is left
// down, to be retried.
func (f *Fixture) Reboot(name types.NodeID) (*core.Node, *recovery.RestartReport, error) {
	n, err := f.Cluster.Reboot(name)
	if err != nil {
		return nil, nil, fmt.Errorf("rebooting %s: %w", name, err)
	}
	report, err := f.start(n)
	if err != nil {
		f.Crash(name)
		return nil, nil, err
	}
	return n, report, nil
}

// RetryUntil runs fn every interval until it succeeds or the deadline
// passes, and returns fn's last error.
func RetryUntil(deadline time.Time, interval time.Duration, fn func() error) error {
	for {
		err := fn()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		//tabslint:ignore sleepsync deadline-retry poll: what fn waits for (sweepers, lock releases, a reboot, a migration's quiesce) finishes on other nodes' clocks, there is no single event to wait on
		time.Sleep(interval)
	}
}

// MedianRun measures n times and returns the run whose score is the median
// (the lower middle of an even count), with every run's score, so a sweep
// point shows its own noise.
func MedianRun[T any](n int, measure func() (T, error), score func(T) float64) (T, []float64, error) {
	runs := make([]T, n)
	scores := make([]float64, n)
	order := make([]int, n)
	for i := range runs {
		var err error
		if runs[i], err = measure(); err != nil {
			return runs[i], nil, err
		}
		scores[i], order[i] = score(runs[i]), i
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	return runs[order[(n-1)/2]], scores, nil
}

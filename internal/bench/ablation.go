package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"tabs/internal/core"
	"tabs/internal/servers/accum"
	"tabs/internal/servers/intarray"
	"tabs/internal/types"
	"tabs/internal/workload"
)

// This file implements the ablation studies DESIGN.md calls out — the
// design-choice comparisons the paper names as open work (§7: "we plan to
// empirically compare the relative merits of value and operation logging")
// or motivates qualitatively (§2.1.3: type-specific lock modes "obtain
// increased concurrency").

// LoggingAblation compares value logging and operation logging for the
// same workload: n updates of one 8-byte counter, one transaction each.
type LoggingAblation struct {
	Updates        int
	ValueLogBytes  int64 // log growth under value logging (intarray)
	OpLogBytes     int64 // log growth under operation logging (accum)
	ValuePasses    int   // recovery passes after a crash
	OpPasses       int
	ValueElapsedNs int64
	OpElapsedNs    int64
}

// MeasureLoggingAblation runs the comparison.
func MeasureLoggingAblation(updates int) (*LoggingAblation, error) {
	if updates <= 0 {
		updates = 100
	}
	out := &LoggingAblation{Updates: updates}
	var err error
	// Value logging: the integer array logs old/new values.
	out.ValueLogBytes, out.ValueElapsedNs, out.ValuePasses, err = logAndRecover("v", updates,
		workload.IntArray("arr", 16, time.Second),
		func(n *core.Node, tid types.TransID, i int) error {
			return intarray.NewClient(n, "v", "arr").Set(tid, 1, int64(i))
		})
	if err != nil {
		return nil, err
	}
	// Operation logging: the accumulator logs redo/undo scripts.
	out.OpLogBytes, out.OpElapsedNs, out.OpPasses, err = logAndRecover("o", updates,
		func(n *core.Node) error {
			_, err := accum.Attach(n, "acc", 1, 16, time.Second)
			return err
		},
		func(n *core.Node, tid types.TransID, _ int) error {
			return accum.NewClient(n, "o", "acc").Increment(tid, 1, 1)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// logAndRecover runs updates single-update transactions on a one-node
// cluster, then crashes and restarts it: the log growth, the elapsed time
// and the number of passes restart took.
func logAndRecover(name types.NodeID, updates int, attach func(*core.Node) error, update func(n *core.Node, tid types.TransID, i int) error) (logBytes, elapsedNs int64, passes int, err error) {
	fx, err := workload.Boot(workload.Options{Cluster: core.DefaultClusterOptions(), Nodes: []types.NodeID{name}, Attach: attach})
	if err != nil {
		return 0, 0, 0, err
	}
	defer fx.Shutdown()
	n := fx.Node(name)
	before := n.Log.SpaceUsed()
	start := time.Now()
	for i := 0; i < updates; i++ {
		if err := n.App.Run(func(tid types.TransID) error { return update(n, tid, i) }); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsedNs = time.Since(start).Nanoseconds()
	logBytes = n.Log.SpaceUsed() - before
	fx.Crash(name)
	_, report, err := fx.Reboot(name)
	if err != nil {
		return 0, 0, 0, err
	}
	return logBytes, elapsedNs, report.Passes, nil
}

// LockingAblation compares read/write locking with type-specific
// increment locking under deliberate contention: k concurrent
// transactions all update one cell and stay open until all have updated.
type LockingAblation struct {
	Transactions int
	// RW: plain write locks (integer array): all but one transaction must
	// wait or time out.
	RWGranted  int
	RWTimeouts int64
	RWWaits    int64
	// TS: type-specific increment locks (accumulator): all proceed.
	TSGranted  int
	TSTimeouts int64
	TSWaits    int64
}

// MeasureLockingAblation runs the comparison with k concurrent holders.
func MeasureLockingAblation(k int) (*LockingAblation, error) {
	if k <= 1 {
		k = 4
	}
	out := &LockingAblation{Transactions: k}
	var err error
	// Read/write locking (integer array).
	out.RWGranted, out.RWTimeouts, out.RWWaits, err = contend("rw", "arr", k,
		workload.IntArray("arr", 16, 100*time.Millisecond),
		func(n *core.Node, tid types.TransID) error {
			return intarray.NewClient(n, "rw", "arr").Set(tid, 1, 42)
		})
	if err != nil {
		return nil, err
	}
	// Type-specific increment locking (accumulator).
	out.TSGranted, out.TSTimeouts, out.TSWaits, err = contend("ts", "acc", k,
		func(n *core.Node) error {
			_, err := accum.Attach(n, "acc", 1, 16, 100*time.Millisecond)
			return err
		},
		func(n *core.Node, tid types.TransID) error {
			return accum.NewClient(n, "ts", "acc").Increment(tid, 1, 1)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// contend opens k transactions on a one-node cluster, has each update the
// same cell concurrently while all stay open, and reports how many updates
// were granted plus the server's lock time-outs and waits.
func contend(name types.NodeID, server types.ServerID, k int, attach func(*core.Node) error, update func(*core.Node, types.TransID) error) (granted int, timeouts, waits int64, err error) {
	fx, err := workload.Boot(workload.Options{Cluster: core.DefaultClusterOptions(), Nodes: []types.NodeID{name}, Attach: attach})
	if err != nil {
		return 0, 0, 0, err
	}
	defer fx.Shutdown()
	n := fx.Node(name)
	tids := make([]types.TransID, k)
	for i := range tids {
		if tids[i], err = n.App.BeginTransaction(types.NilTransID); err != nil {
			return 0, 0, 0, err
		}
	}
	results := make([]error, k)
	var wg sync.WaitGroup
	for i := range tids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = update(n, tids[i])
		}(i)
	}
	wg.Wait()
	if srv, ok := n.Server(server); ok {
		s := srv.Locks().Stats()
		timeouts, waits = s.Timeouts, s.Waits
	}
	for i, tid := range tids {
		if results[i] == nil {
			granted++
		}
		_ = n.App.AbortTransaction(tid)
	}
	return granted, timeouts, waits, nil
}

// FormatAblations renders both ablations.
func FormatAblations(lg *LoggingAblation, lk *LockingAblation) string {
	var b strings.Builder
	b.WriteString("Ablation: value vs. operation logging (paper §2.1.3, §7)\n")
	fmt.Fprintf(&b, "  %d single-cell updates, one transaction each\n", lg.Updates)
	fmt.Fprintf(&b, "  %-20s %12s %14s %10s\n", "technique", "log bytes", "bytes/update", "recovery")
	fmt.Fprintf(&b, "  %-20s %12d %14.1f %7d pass\n", "value logging", lg.ValueLogBytes, float64(lg.ValueLogBytes)/float64(lg.Updates), lg.ValuePasses)
	fmt.Fprintf(&b, "  %-20s %12d %14.1f %7d pass\n", "operation logging", lg.OpLogBytes, float64(lg.OpLogBytes)/float64(lg.Updates), lg.OpPasses)
	b.WriteString("  (operation records trade smaller multi-page updates and more concurrency\n")
	b.WriteString("   for a three-pass recovery; with 8-byte values the records are similar.)\n\n")

	b.WriteString("Ablation: read/write vs. type-specific locking (paper §2.1.3)\n")
	fmt.Fprintf(&b, "  %d concurrent transactions updating one cell, all held open\n", lk.Transactions)
	fmt.Fprintf(&b, "  %-24s %8s %8s %9s\n", "locking", "granted", "waits", "timeouts")
	fmt.Fprintf(&b, "  %-24s %8d %8d %9d\n", "read/write (exclusive)", lk.RWGranted, lk.RWWaits, lk.RWTimeouts)
	fmt.Fprintf(&b, "  %-24s %8d %8d %9d\n", "type-specific increment", lk.TSGranted, lk.TSWaits, lk.TSTimeouts)
	b.WriteString("  (commuting increment locks admit every transaction at once; exclusive\n")
	b.WriteString("   write locks serialize them behind time-outs.)\n")
	return b.String()
}

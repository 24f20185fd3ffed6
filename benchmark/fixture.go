package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tabs/internal/core"
	"tabs/internal/recovery"
	"tabs/internal/types"
)

// device is the modelled disk of local_commit and local_paging: whole
// milliseconds only, because time.Sleep has a floor of about 1.1 ms here
// and every shorter sleep costs the same. The hook runs with the disk's
// mutex held, so the sleep also models the single arm.
type device struct {
	busyNs     atomic.Int64
	accesses   atomic.Int64
	sequential atomic.Int64
}

func (d *device) hook(_ float64, sequential bool) {
	start := time.Now()
	if sequential {
		d.sequential.Add(1)
		time.Sleep(time.Millisecond)
	} else {
		time.Sleep(2 * time.Millisecond)
	}
	d.accesses.Add(1)
	d.busyNs.Add(int64(time.Since(start)))
}

// fixture is one booted cluster with the workload's servers attached, its
// client stubs bound on the home node, and the workers' models.
type fixture struct {
	w       *workload
	c       *core.Cluster
	home    *core.Node
	stub    stub
	workers []*worker
	dev     *device   // non-nil on the device-model workloads
	obs     *observer // non-nil on the traced cluster

	errOnce  sync.Once
	firstErr error
}

// boot builds a fresh cluster for w, attaches and recovers every node, and
// commits one transaction on every slot so that each cell holds a value
// its worker knows. Its duration is one setup_s sample.
func boot(w *workload, seed int64, obs *observer) (*fixture, error) {
	opts := w.opts
	if obs != nil {
		opts.Faults = obs
	}
	c, err := core.NewCluster(opts, w.nodes...)
	if err != nil {
		return nil, err
	}
	fx := &fixture{w: w, c: c, workers: w.newWorkers(seed), obs: obs}
	if err := w.attach(c); err != nil {
		return nil, fmt.Errorf("attach: %w", err)
	}
	for _, name := range w.nodes {
		if _, err := c.Node(name).Recover(); err != nil {
			return nil, fmt.Errorf("recover %s: %w", name, err)
		}
	}
	if err := fx.rebind(); err != nil {
		return nil, err
	}
	var p plan
	for _, wk := range fx.workers {
		for slot := 0; slot < w.slots; slot++ {
			w.write(wk, &p, slot)
			if out := fx.runTxn(wk, &p, nil); out != committed {
				return nil, fmt.Errorf("set-up transaction on slot %d: %v: %w", slot, out, fx.firstErr)
			}
		}
	}
	return fx, nil
}

// rebind points the fixture at the current incarnation of the home node.
func (fx *fixture) rebind() error {
	fx.home = fx.c.Node(homeNode)
	s, err := fx.w.bind(fx.home)
	if err != nil {
		return fmt.Errorf("bind: %w", err)
	}
	fx.stub = s
	return nil
}

// deviceOn installs the device model; deviceOff removes it for the phases
// that are not measured (verification, building the log tail).
func (fx *fixture) deviceOn() {
	if !fx.w.device {
		return
	}
	if fx.dev == nil {
		fx.dev = &device{}
	}
	fx.home.Disk().SetIOHook(fx.dev.hook)
}

func (fx *fixture) deviceOff() {
	if fx.w.device {
		fx.home.Disk().SetIOHook(nil)
	}
}

func (fx *fixture) noteErr(err error) {
	fx.errOnce.Do(func() { fx.firstErr = err })
}

type outcome int

const (
	committed outcome = iota
	aborted           // EndTransaction reported an abort
	errored           // a call failed; the transaction was aborted or its outcome is unknown
	violated          // a read returned a value the model does not allow
)

func (o outcome) String() string {
	return [...]string{"committed", "aborted", "errored", "violated"}[o]
}

// runTxn runs one generated transaction through the application library
// and the client stubs. sp, when set, receives a timestamp at each layer
// boundary the benchmark can see from outside.
func (fx *fixture) runTxn(wk *worker, p *plan, sp *txnSpan) outcome {
	app := fx.home.App
	sp.begin()
	tid, err := app.BeginTransaction(types.NilTransID)
	if err != nil {
		fx.noteErr(err)
		return errored
	}
	sp.mark(tid)
	for i := 0; i < p.n; i++ {
		o := &p.ops[i]
		if o.set {
			err = fx.stub.Set(tid, o.key, o.val)
		} else {
			var v int64
			v, err = fx.stub.Get(tid, o.key)
			if err == nil && v != o.val && !wk.ambiguous(v) {
				fx.noteErr(fmt.Errorf("key %d read %d, the model says %d", o.key, v, o.val))
				_ = app.AbortTransaction(tid) // already failing; the violation is what is reported
				return violated
			}
		}
		if err != nil {
			fx.noteErr(err)
			if aerr := app.AbortTransaction(tid); aerr != nil {
				fx.noteErr(aerr)
			}
			return errored
		}
		sp.mark(tid)
	}
	ok, err := app.EndTransaction(tid)
	sp.mark(tid)
	if err != nil {
		fx.noteErr(err)
		if p.slot >= 0 {
			wk.maybe[p.slot] = p.val
		}
		return errored
	}
	if !ok {
		fx.noteErr(fmt.Errorf("transaction %v aborted at commit", tid))
		return aborted
	}
	if p.slot >= 0 {
		wk.ack[p.slot], wk.maybe[p.slot] = p.val, 0
	}
	return committed
}

// ambiguous reports whether v was written by a transaction whose commit
// call failed without saying which way it went: a later read may see it.
func (wk *worker) ambiguous(v int64) bool {
	for _, m := range wk.maybe {
		if m != 0 && m == v {
			return true
		}
	}
	return false
}

// verify reads every cell back in read-only transactions: each slot must
// hold its last acknowledged value (or the value of a transaction whose
// outcome was ambiguous), all cells of a slot must agree (atomicity across
// shards), and the shared cells must still be 0. It returns the number of
// cells checked and the violations found.
func (fx *fixture) verify() (checked, violations int64, err error) {
	app := fx.home.App
	type want struct {
		key   uint64
		a, b  int64
		first bool
	}
	var wants []want
	for _, wk := range fx.workers {
		for slot := 0; slot < fx.w.slots; slot++ {
			alt := wk.ack[slot]
			if wk.maybe[slot] != 0 {
				alt = wk.maybe[slot]
			}
			for i := 0; i < fx.w.width; i++ {
				wants = append(wants, want{key: fx.w.cell(wk.id, slot, i), a: wk.ack[slot], b: alt, first: i == 0})
			}
		}
	}
	for _, k := range fx.w.shared {
		wants = append(wants, want{key: k, first: true})
	}
	// A few dozen reads per transaction keeps each one's lock set small.
	const batch = 48
	var slotVal int64
	for len(wants) > 0 {
		n := min(batch, len(wants))
		for n < len(wants) && !wants[n].first {
			n++ // never split a slot's cells over two transactions
		}
		tid, err := app.BeginTransaction(types.NilTransID)
		if err != nil {
			return checked, violations, err
		}
		for _, wt := range wants[:n] {
			v, err := fx.stub.Get(tid, wt.key)
			if err != nil {
				_ = app.AbortTransaction(tid) // the read error is what is reported
				return checked, violations, fmt.Errorf("verify key %d: %w", wt.key, err)
			}
			checked++
			if wt.first {
				slotVal = v
			}
			if (v != wt.a && v != wt.b) || v != slotVal {
				violations++
				fx.noteErr(fmt.Errorf("key %d holds %d, acknowledged %d (ambiguous %d), slot's first cell %d", wt.key, v, wt.a, wt.b, slotVal))
			}
		}
		if ok, err := app.EndTransaction(tid); err != nil || !ok {
			return checked, violations, fmt.Errorf("verify commit: ok=%v err=%v", ok, err)
		}
		wants = wants[n:]
	}
	return checked, violations, nil
}

// tailUnfinished is how many transactions the crash phase leaves begun
// and written but never ended.
const tailUnfinished = 8

// crashRecover measures time without service. It checkpoints the home
// node and reclaims its log, commits tail transactions of the workload's
// own shape from one client, leaves tailUnfinished transactions begun and
// written but never ended on cells homed there, crashes the node, and
// times Reboot through re-attach and Recover to the first committed
// transaction, with the device model off: a modelled restart reads the
// log a sector at a time and takes tens of seconds. Then it reads every
// cell back: every acknowledged value must be readable from what was
// forced before the crash, and no unfinished value may be visible.
func (fx *fixture) crashRecover(tail int) (took time.Duration, report *recovery.RestartReport, violations int64, err error) {
	took, report, err = fx.crashAndRestart(tail)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("crash phase: %w", err)
	}
	if _, violations, err = fx.verify(); err != nil {
		return 0, nil, 0, fmt.Errorf("after restart: %w", err)
	}
	return took, report, violations, nil
}

func (fx *fixture) crashAndRestart(tail int) (time.Duration, *recovery.RestartReport, error) {
	fx.deviceOff() // the tail only has to exist; its timing is not measured
	// Reclaim flushes every dirty page, checkpoints and moves the log's
	// low-water mark up to the checkpoint, so restart has exactly the tail
	// to work through, wherever the window's own reclamation cycle stood.
	// (A bare RM.Checkpoint would fail here: the record lists every dirty
	// page and the program refuses one over 2 KiB, which local_hot's 264
	// pages exceed.)
	if err := fx.home.RM.Reclaim(); err != nil {
		return 0, nil, fmt.Errorf("checkpoint and reclaim: %w", err)
	}
	wk := fx.workers[0]
	var p plan
	for i := 0; i < tail; i++ {
		fx.w.next(wk, &p, -1)
		if out := fx.runTxn(wk, &p, nil); out != committed {
			return 0, nil, fmt.Errorf("tail transaction %d: %v: %w", i, out, fx.firstErr)
		}
	}
	if err := fx.quiesce(); err != nil {
		return 0, nil, err
	}
	for slot := 0; slot < tailUnfinished; slot++ {
		tid, err := fx.home.App.BeginTransaction(types.NilTransID)
		if err != nil {
			return 0, nil, err
		}
		// Only the cell homed on the crashing node: a remote write would
		// leave an orphan's lock behind on a node that stays up.
		if err := fx.stub.Set(tid, fx.w.cell(wk.id, slot, 0), -1-int64(slot)); err != nil {
			return 0, nil, fmt.Errorf("unfinished transaction %d: %w", slot, err)
		}
	}
	fx.c.Crash(homeNode)

	start := time.Now()
	node, err := fx.c.Reboot(homeNode)
	if err != nil {
		return 0, nil, fmt.Errorf("reboot: %w", err)
	}
	if err := fx.w.reattach(fx.c, node); err != nil {
		return 0, nil, fmt.Errorf("re-attach: %w", err)
	}
	report, err := node.Recover()
	if err != nil {
		return 0, nil, fmt.Errorf("recover: %w", err)
	}
	if err := fx.rebind(); err != nil {
		return 0, nil, err
	}
	fx.w.next(wk, &p, -1)
	if out := fx.runTxn(wk, &p, nil); out != committed {
		return 0, nil, fmt.Errorf("first transaction after restart: %v: %w", out, fx.firstErr)
	}
	return time.Since(start), report, nil
}

// quiesce waits until no node holds a live transaction, so that a crash
// of the home node leaves nothing prepared on the others.
func (fx *fixture) quiesce() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := 0
		for _, n := range fx.c.Nodes() {
			live += n.TM.LiveTransactions()
		}
		if live == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("transactions still live 5 s after the last commit was acknowledged")
		}
		time.Sleep(time.Millisecond) // polling from outside: there is no event to wait on
	}
}

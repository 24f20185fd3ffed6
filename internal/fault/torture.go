package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tabs/internal/core"
	"tabs/internal/disk"
	"tabs/internal/txn"
	"tabs/internal/types"
	"tabs/internal/workload"
)

// TortureOptions parameterize one torture run.
type TortureOptions struct {
	Seed    int64  // fault plan + workload schedule seed
	Nodes   int    // cluster size (minimum 2)
	Txns    int    // how many workload transactions to drive
	Profile string // fault profile name (ProfileByName)
	Cells   int    // intarray cells per node (default 64)

	// CommitProtocol selects the cluster's commit protocol ("2pc" when
	// empty, or "paxos"). Under paxos a commit may return ErrInDoubt when
	// the acceptor quorum is unreachable; the harness then tracks the
	// transaction as pending and folds its writes into the model once the
	// replicated decision resolves.
	CommitProtocol string

	// Logf, when set, receives progress lines (testing.T.Logf shape).
	Logf func(format string, args ...any)
}

// TortureReport summarizes a run.
type TortureReport struct {
	Seed       int64
	Profile    string
	Nodes      int
	Txns       int
	Committed  int
	Aborted    int
	InDoubt    int // commits that returned ErrInDoubt and resolved later
	Crashes    int // node crashes performed (scheduled + injector-requested)
	Reboots    int
	Partitions int
	Faults     int // fault-trace events retained by the injector
}

func (r *TortureReport) String() string {
	return fmt.Sprintf("torture seed=%d profile=%s nodes=%d txns=%d committed=%d aborted=%d indoubt=%d crashes=%d reboots=%d partitions=%d faults=%d",
		r.Seed, r.Profile, r.Nodes, r.Txns, r.Committed, r.Aborted, r.InDoubt, r.Crashes, r.Reboots, r.Partitions, r.Faults)
}

// torture is the run state: a cluster of intarray nodes driven through a
// seeded schedule of transactions, crashes, and partitions, checked against
// the client model.
type torture struct {
	opts  TortureOptions
	inj   *Injector
	fx    *workload.Fixture
	model *workload.Model
	rng   *rand.Rand // workload schedule; independent of the fault streams
	names []types.NodeID

	down  map[types.NodeID]int // crashed nodes -> transactions left down
	parts []partition

	report TortureReport
}

type partition struct {
	a, b types.NodeID
	ttl  int
}

// RunTorture drives a randomized multi-node transactional workload under a
// seeded fault schedule and verifies the four recovery invariants of
// workload.Model.Verify once partitions are healed and crashed nodes are
// back.
//
// Any violation returns an error carrying the seed and the injector's
// fault trace, from which the run reproduces deterministically.
func RunTorture(opts TortureOptions) (*TortureReport, error) {
	if opts.Nodes < 2 {
		opts.Nodes = 2
	}
	if opts.Txns <= 0 {
		opts.Txns = 100
	}
	if opts.Cells <= 0 {
		opts.Cells = 64
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	prof, err := ProfileByName(opts.Profile)
	if err != nil {
		return nil, err
	}
	tt := &torture{
		opts: opts,
		inj:  New(opts.Seed, prof),
		rng:  rand.New(rand.NewSource(opts.Seed)),
		down: make(map[types.NodeID]int),
	}
	tt.report = TortureReport{Seed: opts.Seed, Profile: prof.Name, Nodes: opts.Nodes, Txns: opts.Txns}
	var keys []workload.Key
	for i := 0; i < opts.Nodes; i++ {
		name := types.NodeID(fmt.Sprintf("n%d", i))
		tt.names = append(tt.names, name)
		for cell := 1; cell <= opts.Cells; cell++ { // cells are 1-indexed
			keys = append(keys, workload.Key{Node: name, Cell: uint64(cell)})
		}
	}

	copts := core.DefaultClusterOptions()
	copts.LogSectors = 4096
	copts.PoolPages = 128
	copts.LockTimeout = 500 * time.Millisecond
	copts.Faults = tt.inj
	copts.CommitProtocol = opts.CommitProtocol
	tt.fx, err = workload.Boot(workload.Options{
		Cluster:       copts,
		Nodes:         tt.names,
		Attach:        workload.IntArray("arr", uint32(opts.Cells), 500*time.Millisecond),
		TortureTimers: true,
		Logf:          opts.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("torture: %w", err)
	}
	defer tt.fx.Shutdown()
	tt.model = tt.fx.NewModel(keys)

	// Setup ran clean; arm the plan.
	tt.inj.Enable()
	if err := tt.run(); err != nil {
		return &tt.report, tt.fail(err)
	}
	if err := tt.finalVerify(); err != nil {
		return &tt.report, tt.fail(err)
	}
	tt.report.Faults = len(tt.inj.Events())
	return &tt.report, nil
}

// fail wraps an invariant violation with everything needed to reproduce it.
func (tt *torture) fail(err error) error {
	return fmt.Errorf("torture: %w\nreproduce with seed=%d profile=%s nodes=%d txns=%d\nfault trace:\n%s",
		err, tt.opts.Seed, tt.report.Profile, tt.opts.Nodes, tt.opts.Txns, tt.inj.FormatEvents())
}

// alive lists nodes currently up.
func (tt *torture) alive() []types.NodeID {
	var out []types.NodeID
	for _, n := range tt.names {
		if _, isDown := tt.down[n]; !isDown {
			out = append(out, n)
		}
	}
	return out
}

// crashNode takes a node down for a seeded number of transactions.
func (tt *torture) crashNode(name types.NodeID, why string) {
	if _, isDown := tt.down[name]; isDown {
		return
	}
	// Keep a majority of the schedule runnable: never take the last node.
	if len(tt.alive()) <= 1 {
		return
	}
	tt.fx.Crash(name)
	stay := 1
	if k := tt.inj.ScheduleKnobs().DownTxns; k > 1 {
		stay = 1 + tt.rng.Intn(k)
	}
	tt.down[name] = stay
	tt.report.Crashes++
	tt.opts.Logf("txn %d: crash %s (%s), down for %d txns", tt.report.Committed+tt.report.Aborted, name, why, stay)
}

// reviveDue reboots nodes whose downtime expired. A reboot that fails
// under injection (e.g. a read fault during recovery) leaves the node down
// to retry at the next boundary.
func (tt *torture) reviveDue(force bool) {
	for name, left := range tt.down {
		if left > 1 && !force {
			tt.down[name] = left - 1
			continue
		}
		if _, _, err := tt.fx.Reboot(name); err != nil {
			tt.opts.Logf("%v; retrying later", err)
			continue
		}
		delete(tt.down, name)
		tt.report.Reboots++
		tt.opts.Logf("revived %s", name)
	}
}

// stepFaults advances the boundary-scheduled fault machinery: drain
// injector crash requests, age partitions, maybe add new ones.
func (tt *torture) stepFaults() {
	for {
		name, ok := tt.inj.TakeCrashRequest()
		if !ok {
			break
		}
		tt.crashNode(name, "injector request")
	}
	keep := tt.parts[:0]
	for _, p := range tt.parts {
		p.ttl--
		if p.ttl <= 0 {
			tt.inj.Heal(p.a, p.b)
			tt.opts.Logf("healed partition %s|%s", p.a, p.b)
			continue
		}
		keep = append(keep, p)
	}
	tt.parts = keep

	knobs := tt.inj.ScheduleKnobs()
	if knobs.PartitionProb > 0 && tt.rng.Float64() < knobs.PartitionProb {
		al := tt.alive()
		if len(al) >= 2 {
			i := tt.rng.Intn(len(al))
			j := tt.rng.Intn(len(al) - 1)
			if j >= i {
				j++
			}
			sym := tt.rng.Intn(2) == 0
			tt.inj.Partition(al[i], al[j], sym)
			tt.parts = append(tt.parts, partition{a: al[i], b: al[j], ttl: knobs.PartitionTxns})
			tt.report.Partitions++
			tt.opts.Logf("partition %s->%s symmetric=%v for %d txns", al[i], al[j], sym, knobs.PartitionTxns)
		}
	}
	if knobs.CrashProb > 0 && tt.rng.Float64() < knobs.CrashProb {
		al := tt.alive()
		if len(al) > 1 {
			tt.crashNode(al[tt.rng.Intn(len(al))], "scheduled")
		}
	}
}

// run drives the transaction schedule.
func (tt *torture) run() error {
	for t := 0; t < tt.opts.Txns; t++ {
		tt.stepFaults()
		tt.reviveDue(false)
		al := tt.alive()
		if len(al) == 0 {
			tt.reviveDue(true)
			if al = tt.alive(); len(al) == 0 {
				return errors.New("no node could be revived")
			}
		}
		// Periodic mid-run check, only in quiet moments: every node up, no
		// partitions, so in-doubt transactions can resolve promptly.
		if t%16 == 15 && len(tt.down) == 0 && len(tt.parts) == 0 {
			if err := tt.checkModel(time.Now().Add(10 * time.Second)); err != nil {
				return fmt.Errorf("mid-run (txn %d): %w", t, err)
			}
		}
		tt.runTxn(al)
	}
	return nil
}

// checkModel resolves the in-doubt commits and compares the arrays with
// the model, retrying until the deadline: stray in-doubt transactions may
// hold locks briefly (their aborts release within a lock timeout + sweep).
func (tt *torture) checkModel(deadline time.Time) error {
	if err := tt.model.Resolve(deadline); err != nil {
		return err
	}
	// Reads must observe the real committed state, not injected noise.
	tt.inj.Disable()
	defer tt.inj.Enable()
	coord := tt.fx.Node(tt.names[0])
	return workload.RetryUntil(deadline, 50*time.Millisecond, func() error {
		return tt.model.Check(coord, workload.IntArrays{From: coord, ID: "arr"})
	})
}

// runTxn executes one randomized transaction: 1–3 writes spread over 1–2
// target nodes, coordinated from a random live node.
func (tt *torture) runTxn(al []types.NodeID) {
	coordName := al[tt.rng.Intn(len(al))]
	coord := tt.fx.Node(coordName)
	targets := []types.NodeID{al[tt.rng.Intn(len(al))]}
	if len(al) > 1 && tt.rng.Intn(2) == 0 {
		for {
			t2 := al[tt.rng.Intn(len(al))]
			if t2 != targets[0] {
				targets = append(targets, t2)
				break
			}
		}
	}
	var writes []workload.Write
	for i, k := 0, 1+tt.rng.Intn(3); i < k; i++ {
		writes = append(writes, workload.Write{
			Key: workload.Key{Node: targets[tt.rng.Intn(len(targets))], Cell: uint64(1 + tt.rng.Intn(tt.opts.Cells))},
			Val: tt.rng.Int63n(1 << 40),
		})
	}
	switch err := tt.model.Apply(coord, workload.IntArrays{From: coord, ID: "arr"}, writes); {
	case err == nil:
		tt.report.Committed++
	case errors.Is(err, txn.ErrInDoubt):
		// Parked in the model; its writes count if and only if the quorum
		// decided commit, learned at the next verification boundary.
		tt.report.InDoubt++
	default:
		tt.report.Aborted++
		// An injected log/disk failure may have wedged the coordinator's
		// local abort mid-undo; the sweeper retries it, but crashing here
		// also exercises the recovery path for exactly these states.
		if errors.Is(err, disk.ErrWriteFailed) || errors.Is(err, ErrInjected) {
			tt.crashNode(coordName, "txn hit injected I/O failure")
		}
	}
}

// finalVerify heals everything, disables injection, restarts every down
// node, and checks all four invariants to quiescence.
func (tt *torture) finalVerify() error {
	tt.inj.HealAll()
	tt.inj.Disable()
	tt.parts = nil
	deadline := time.Now().Add(30 * time.Second)
	if err := workload.RetryUntil(deadline, 100*time.Millisecond, func() error {
		tt.reviveDue(true)
		if len(tt.down) > 0 {
			return fmt.Errorf("nodes still down after heal: %v", tt.down)
		}
		return nil
	}); err != nil {
		return err
	}
	coord := tt.fx.Node(tt.names[0])
	return tt.model.Verify(coord, workload.IntArrays{From: coord, ID: "arr"}, tt.rng.Int63n(1<<40), deadline)
}

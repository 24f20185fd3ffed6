package fault

import (
	"errors"
	"fmt"
	"time"

	"tabs/internal/core"
	"tabs/internal/servers/intarray"
	"tabs/internal/types"
	"tabs/internal/workload"
)

// CoordKillOptions parameterize one coordinator-kill-after-prepare run.
type CoordKillOptions struct {
	// CommitProtocol is "2pc" (default) or "paxos".
	CommitProtocol string

	// KillPhase picks where the coordinator dies relative to the commit
	// decision: "decide" (after every participant prepared, before the
	// decision exists anywhere) or "decided" (after the decision is
	// durable — at the acceptors under paxos, in the coordinator's own log
	// under 2pc — but before any participant heard it).
	KillPhase string

	// ResolveWait bounds how long the harness waits for the surviving
	// participants to resolve the in-doubt transaction after the kill.
	ResolveWait time.Duration

	// Logf, when set, receives progress lines (testing.T.Logf shape).
	Logf func(format string, args ...any)
}

// CoordKillReport summarizes what the survivors managed after the
// coordinator was killed, permanently, at the decision point.
type CoordKillReport struct {
	Protocol  string
	KillPhase string
	Resolved  bool   // both participants drained to zero live transactions
	Outcome   string // "committed"/"aborted" when resolved, "" otherwise
	ResolveMs int64  // kill -> drain latency (meaningful when Resolved)
	LiveLeft  int    // live transactions still held across survivors at the end
	LocksHeld bool   // a conflicting write still cannot acquire the doomed txn's locks
}

func (r *CoordKillReport) String() string {
	return fmt.Sprintf("coordkill protocol=%s phase=%s resolved=%v outcome=%q resolve_ms=%d live_left=%d locks_held=%v",
		r.Protocol, r.KillPhase, r.Resolved, r.Outcome, r.ResolveMs, r.LiveLeft, r.LocksHeld)
}

// RunCoordKill stages the exact scenario that makes plain 2PC a blocking
// protocol (and that Paxos Commit exists to fix): a three-node cluster, a
// distributed write transaction whose participants have all prepared, and a
// coordinator that dies at the commit decision point and NEVER comes back.
//
// The coordinator's commit path is parked forever with a decide hook at
// opts.KillPhase, then the node is crashed without reboot. Under 2pc the
// survivors hold their prepared state (and its write locks) in doubt
// indefinitely: presumed abort cannot fire because the dead coordinator
// might hold a commit record. Under paxos the decision lives at the
// acceptor quorum (the two survivors plus the corpse = 2F+1 with F=1), so
// the in-doubt sweeper resolves every participant without the coordinator:
// "decide" resolves to aborted (nothing was ever proposed; recovery
// proposers close the instances with the abort sentinel), "decided"
// resolves to committed (the quorum already accepted the decision).
//
// The returned report says what happened; an error means the harness
// itself malfunctioned or the survivors violated an invariant (disagreeing
// outcomes, committed effects not durable).
func RunCoordKill(opts CoordKillOptions) (*CoordKillReport, error) {
	if opts.KillPhase == "" {
		opts.KillPhase = "decide"
	}
	if opts.KillPhase != "decide" && opts.KillPhase != "decided" {
		return nil, fmt.Errorf("coordkill: unknown kill phase %q", opts.KillPhase)
	}
	if opts.ResolveWait <= 0 {
		opts.ResolveWait = 5 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	proto := opts.CommitProtocol
	if proto == "" {
		proto = core.Protocol2PC
	}
	rep := &CoordKillReport{Protocol: proto, KillPhase: opts.KillPhase}

	copts := core.DefaultClusterOptions()
	copts.LockTimeout = 500 * time.Millisecond
	copts.CommitProtocol = opts.CommitProtocol
	c, err := workload.Boot(workload.Options{
		Cluster:       copts,
		Nodes:         []types.NodeID{"c0", "p1", "p2"},
		Attach:        workload.IntArray("arr", 8, 500*time.Millisecond),
		TortureTimers: true,
	})
	if err != nil {
		return nil, fmt.Errorf("coordkill: %w", err)
	}
	defer c.Shutdown()
	coord, p1, p2 := c.Node("c0"), c.Node("p1"), c.Node("p2")

	// Park the coordinator's commit path forever at the kill phase. The
	// parked goroutine models the dead process: it holds no TM locks
	// (fireHook runs outside them) and is intentionally never released.
	armed := make(chan types.TransID, 1)
	park := make(chan struct{})
	coord.TM.SetDecideHook(func(tid types.TransID, phase string) {
		if phase != opts.KillPhase {
			return
		}
		select {
		case armed <- tid:
		default:
		}
		<-park
	})

	const doomedVal = int64(4242)
	go func() {
		// Never returns: the decide hook parks this goroutine and the node
		// is then crashed out from under it.
		_ = coord.App.Run(func(tid types.TransID) error {
			for _, tgt := range []types.NodeID{"p1", "p2"} {
				if err := intarray.NewClient(coord, tgt, "arr").Set(tid, 1, doomedVal); err != nil {
					return err
				}
			}
			return nil
		})
	}()

	var doomed types.TransID
	select {
	case doomed = <-armed:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("coordkill: transaction never reached phase %q", opts.KillPhase)
	}
	c.Crash("c0") // permanent: the harness never reboots it
	killed := time.Now()
	opts.Logf("killed coordinator c0 at phase %q, doomed txn %v", opts.KillPhase, doomed)

	// Wait for the survivors to resolve the in-doubt transaction (or not:
	// that is the 2PC blocking window this harness exists to demonstrate).
	if workload.RetryUntil(killed.Add(opts.ResolveWait), 25*time.Millisecond, func() error {
		if rep.LiveLeft = p1.TM.LiveTransactions() + p2.TM.LiveTransactions(); rep.LiveLeft > 0 {
			return errors.New("survivors still in doubt")
		}
		return nil
	}) == nil {
		rep.Resolved = true
		rep.ResolveMs = time.Since(killed).Milliseconds()
	}

	if rep.Resolved {
		st1, st2 := p1.TM.Status(doomed), p2.TM.Status(doomed)
		if st1 != st2 {
			return rep, fmt.Errorf("coordkill: survivors disagree on %v: p1=%v p2=%v", doomed, st1, st2)
		}
		if st1 != types.StatusCommitted && st1 != types.StatusAborted {
			return rep, fmt.Errorf("coordkill: drained but outcome of %v not terminal: %v", doomed, st1)
		}
		rep.Outcome = st1.String()
		// Durability check: committed effects visible, aborted invisible.
		want := int64(0)
		if st1 == types.StatusCommitted {
			want = doomedVal
		}
		err := p1.App.Run(func(tid types.TransID) error {
			for _, tgt := range []types.NodeID{"p1", "p2"} {
				v, err := intarray.NewClient(p1, tgt, "arr").Get(tid, 1)
				if err != nil {
					return err
				}
				if v != want {
					return fmt.Errorf("%s cell 1 = %d after %s outcome, want %d", tgt, v, rep.Outcome, want)
				}
			}
			return nil
		})
		if err != nil {
			return rep, fmt.Errorf("coordkill: invariant violated: %w", err)
		}
	}

	// Lock probe: a conflicting write from a survivor. While the doomed
	// transaction is unresolved its participants hold write locks on the
	// cell, so the probe times out; once resolved the probe must commit.
	probeErr := p1.App.Run(func(tid types.TransID) error {
		for _, tgt := range []types.NodeID{"p1", "p2"} {
			if err := intarray.NewClient(p1, tgt, "arr").Set(tid, 1, 7); err != nil {
				return err
			}
		}
		return nil
	})
	rep.LocksHeld = probeErr != nil
	if rep.Resolved && probeErr != nil {
		return rep, fmt.Errorf("coordkill: resolved but conflicting write still blocked: %w", probeErr)
	}
	opts.Logf("%s", rep.String())
	return rep, nil
}

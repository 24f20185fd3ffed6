package workload

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tabs/internal/core"
	"tabs/internal/txn"
	"tabs/internal/types"
)

// Key names one integer cell the clients write: a cell of the array on
// Node, or — Node empty — a global key of a sharded array.
type Key struct {
	Node types.NodeID
	Cell uint64
}

func (k Key) String() string {
	if k.Node == "" {
		return fmt.Sprintf("key %d", k.Cell)
	}
	return fmt.Sprintf("%s cell %d", k.Node, k.Cell)
}

// Write is one cell update of a client transaction.
type Write struct {
	Key Key
	Val int64
}

// Store reaches the cells from inside a transaction; each harness binds
// one to its servers and the node its client runs on.
type Store interface {
	Get(tid types.TransID, k Key) (int64, error)
	Set(tid types.TransID, k Key, v int64) error
}

// inDoubt is a parked commit: its writes enter the model if and only if
// the coordinator's Transaction Manager comes to report it committed.
type inDoubt struct {
	tid    types.TransID
	coord  types.NodeID
	seq    int
	writes []Write
}

// Model is the client-side record of a run: for every key, the last value
// a client was told had committed. Comparing the servers with it checks
// both "committed effects are durable" and "aborted effects are
// invisible", since aborted writes never enter it. Safe for concurrent
// clients.
type Model struct {
	fx   *Fixture
	keys []Key

	mu  sync.Mutex
	seq int
	val map[Key]int64
	// by is the issue order of the transaction whose write val holds: an
	// in-doubt commit that resolves late must not clobber a newer value,
	// because it held the cell's locks until its decision was learned and
	// so serialized before whatever committed afterwards.
	by     map[Key]int
	parked []inDoubt
}

// NewModel returns a model of keys, every cell zero as a fresh array is.
func (f *Fixture) NewModel(keys []Key) *Model {
	return &Model{fx: f, keys: keys, val: make(map[Key]int64), by: make(map[Key]int)}
}

// Apply issues one transaction writing ws, coordinated by coord, and
// records what the client learned. A nil error is an acknowledged commit:
// the writes enter the model. A commit that returned txn.ErrInDoubt — the
// decision rests with the acceptor quorum, not the coordinator — is parked
// until Resolve learns it. Any other error is an abort.
func (m *Model) Apply(coord *core.Node, st Store, ws []Write) error {
	m.mu.Lock()
	m.seq++
	seq := m.seq
	m.mu.Unlock()
	var root types.TransID
	err := coord.App.Run(func(tid types.TransID) error {
		root = tid
		for _, w := range ws {
			if err := st.Set(tid, w.Key, w.Val); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		m.commit(seq, ws)
	} else if errors.Is(err, txn.ErrInDoubt) {
		m.mu.Lock()
		m.parked = append(m.parked, inDoubt{tid: root, coord: coord.ID(), seq: seq, writes: ws})
		m.mu.Unlock()
		m.fx.opts.Logf("commit in doubt: %v on %s", root, coord.ID())
	}
	return err
}

func (m *Model) commit(seq int, ws []Write) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range ws {
		if m.by[w.Key] <= seq {
			m.val[w.Key], m.by[w.Key] = w.Val, seq
		}
	}
}

// Resolve polls every in-doubt commit's coordinator until each reaches a
// terminal outcome, or the deadline passes. The coordinator is looked up
// by name on every poll: it may have crashed and rebooted since.
func (m *Model) Resolve(deadline time.Time) error {
	return RetryUntil(deadline, 50*time.Millisecond, func() error {
		m.mu.Lock()
		parked := m.parked
		m.parked = nil
		m.mu.Unlock()
		var keep []inDoubt
		for _, p := range parked {
			st := types.StatusUnknown
			if n := m.fx.Node(p.coord); n != nil {
				st = n.TM.Status(p.tid)
			}
			switch st {
			case types.StatusCommitted:
				m.commit(p.seq, p.writes)
			case types.StatusAborted:
			default:
				keep = append(keep, p)
				continue
			}
			m.fx.opts.Logf("in-doubt %v resolved: %v", p.tid, st)
		}
		if len(keep) == 0 {
			return nil
		}
		m.mu.Lock()
		m.parked = append(keep, m.parked...)
		m.mu.Unlock()
		return fmt.Errorf("invariant violated: %d in-doubt commits never resolved (first: %v on %s)", len(keep), keep[0].tid, keep[0].coord)
	})
}

// Check reads every key in one transaction and compares it with the model.
func (m *Model) Check(coord *core.Node, st Store) error {
	return coord.App.Run(func(tid types.TransID) error {
		for _, k := range m.keys {
			v, err := st.Get(tid, k)
			if err != nil {
				return fmt.Errorf("reading %s: %w", k, err)
			}
			m.mu.Lock()
			want := m.val[k]
			m.mu.Unlock()
			if v != want {
				return fmt.Errorf("invariant violated: %s = %d, model says %d", k, v, want)
			}
		}
		return nil
	})
}

// Verify checks the four end-state invariants. The harness calls it once
// its faults are healed, injection is off and every node is up; each step
// is retried until the deadline, because stray in-doubt transactions hold
// locks until the sweepers, on several nodes' clocks, resolve them.
//
//  1. committed effects are durable (the cells match the model),
//  2. aborted effects are invisible (the same comparison),
//  3. no orphaned locks (one transaction writing every key commits),
//  4. every transaction resolves (LiveTransactions drains to zero).
//
// The write-all gives key i the value fresh+i.
func (m *Model) Verify(coord *core.Node, st Store, fresh int64, deadline time.Time) error {
	// In-doubt commits first: the quorum's decision says whether their
	// writes count as committed effects.
	if err := m.Resolve(deadline); err != nil {
		return err
	}
	if err := RetryUntil(deadline, 50*time.Millisecond, func() error { return m.Check(coord, st) }); err != nil {
		return err
	}
	all := make([]Write, len(m.keys))
	for i, k := range m.keys {
		all[i] = Write{Key: k, Val: fresh + int64(i)}
	}
	if err := RetryUntil(deadline, 100*time.Millisecond, func() error { return m.Apply(coord, st, all) }); err != nil {
		return fmt.Errorf("invariant violated: write-all cannot commit (orphaned locks?): %w", err)
	}
	if err := m.Check(coord, st); err != nil {
		return err
	}
	return RetryUntil(deadline, 100*time.Millisecond, func() error {
		for _, name := range m.fx.NodeNames() {
			if live := m.fx.Node(name).TM.LiveTransactions(); live > 0 {
				return fmt.Errorf("invariant violated: %s still holds %d live transactions after quiesce", name, live)
			}
		}
		return nil
	})
}

// Package recovery implements the TABS Recovery Manager (paper §3.2.2).
//
// The Recovery Manager coordinates all access to the node's common
// write-ahead log. It writes log records on behalf of data servers (value
// and operation logging, §2.1.3), the Transaction Manager (commit, abort,
// prepare records), and the kernel (via the pager protocol it implements:
// the dirty-page table and the write-ahead force before page steals). It
// processes transaction aborts by following the backward chain of a
// transaction's records and instructing servers to undo their effects, it
// coordinates checkpoints and log-space reclamation, and after a crash it
// scans the log to restore recoverable segments to a state reflecting only
// committed and prepared transactions.
package recovery

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tabs/internal/kernel"
	"tabs/internal/simclock"
	"tabs/internal/stats"
	"tabs/internal/trace"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// Undoer is the server-side interface the Recovery Manager drives during
// abort and crash recovery. The server library provides a generic
// implementation for value-logged servers (installing old values); servers
// that use operation logging register logical undo/redo procedures
// (§3.1.1: RecoverServer "calls the server library's undo/redo code").
type Undoer interface {
	// UndoUpdate reverses one value-logging record by installing the old
	// value. (Redo of value records is physical and the Recovery Manager
	// applies it directly to the recoverable segment.)
	UndoUpdate(tid types.TransID, u *wal.UpdateBody) error
	// UndoOperation reverses one operation-logging record by running its
	// undo script.
	UndoOperation(tid types.TransID, o *wal.OperationBody) error
	// RedoOperation reapplies one operation-logging record by running its
	// redo script (crash recovery; guarded by the page-sequence test).
	RedoOperation(tid types.TransID, o *wal.OperationBody) error
}

// TransStatusSource lets the Recovery Manager query the Transaction
// Manager for the fate of transactions found in the log during crash
// recovery (§3.2.2: "The Recovery Manager then queries the Transaction
// Manager to discover the state of the transaction").
type TransStatusSource interface {
	// ResolveStatus returns the final status of a transaction whose
	// outcome the local log does not decide (in-doubt prepared
	// transactions ask the coordinator).
	ResolveStatus(tid types.TransID, prep *wal.PrepareBody) types.Status
	// RestoreTransRecord replays a transaction-management log record to
	// the Transaction Manager during the analysis pass.
	RestoreTransRecord(r *wal.Record)
}

// PreparedRestorer is optionally implemented by a TransStatusSource. When
// it is, restart hands back every transaction that is still prepared after
// in-doubt resolution, so the Transaction Manager can rebuild the volatile
// state it lost in the crash — without this a prepared participant forgot
// it was in doubt and could acknowledge a phase-2 commit it never applied.
type PreparedRestorer interface {
	RestorePrepared(tid types.TransID, prep *wal.PrepareBody)
}

// ACPSource is the commit-protocol acceptor state that checkpoints must
// capture and restart must rebuild (implemented by acp.Manager). Acceptor
// state rides the common log as RecACP records; the checkpoint carries a
// bounded snapshot blob so reclamation cannot strand promises behind the
// log's low-water mark, with entries that do not fit re-logged after the
// checkpoint record.
type ACPSource interface {
	// CheckpointState returns a snapshot blob at most limit bytes plus
	// individual entry encodings that did not fit.
	CheckpointState(limit int) (blob []byte, overflow [][]byte)
	// RestoreState replays a checkpoint blob during the analysis pass.
	RestoreState(blob []byte)
	// RestoreRecord replays one RecACP record body during analysis.
	RestoreRecord(body []byte)
}

// Errors.
var (
	ErrUnknownServer = errors.New("recovery: no registered undoer for server")
	ErrNotCrashed    = errors.New("recovery: restart on a live manager")
)

// transState is one live transaction's log chain. firstLSN is stamped
// when the entry is created, before its first record is appended, so it
// bounds every record the transaction has or will have: a checkpoint or
// reclamation that runs while that append is in flight still keeps it.
type transState struct {
	firstLSN wal.LSN
	lastLSN  wal.LSN // NilLSN until the first record lands
	status   types.Status
}

// Manager is one node's Recovery Manager.
type Manager struct {
	mu  sync.Mutex
	log *wal.Log
	k   *kernel.Kernel
	rec *stats.Recorder
	tr  *trace.Tracer

	// dirty is the dirty-page table: page -> recLSN (earliest record whose
	// effect may not be in the segment).
	dirty map[types.PageID]wal.LSN
	// pageLSN tracks the newest record LSN applying to each dirty page;
	// the write-ahead rule forces the log to this LSN before a steal, and
	// its value becomes the page's header sequence number (§3.2.1).
	pageLSN map[types.PageID]wal.LSN
	// trans tracks live transactions' log chains.
	trans map[types.TransID]*transState
	// undoers routes undo/redo instructions to data servers.
	undoers map[types.ServerID]Undoer

	checkpointEvery int // transactions between automatic checkpoints
	commitsSinceCkp int
	// ckptMu serializes checkpoints, so anchors advance in the order their
	// redo LSNs were taken and a reclamation to one checkpoint's redo LSN
	// never passes the redo LSN of the anchor restart will read.
	ckptMu sync.Mutex
	// acp, when set, has its acceptor state checkpointed and restored.
	acp ACPSource
	// reclaiming is held by the one finishing transaction that found the
	// log nearly full and is reclaiming on everyone's behalf.
	reclaiming atomic.Bool
}

// Config parameterizes a Manager.
type Config struct {
	Log    *wal.Log
	Kernel *kernel.Kernel
	Rec    *stats.Recorder
	// CheckpointEvery takes a checkpoint after this many logged commits;
	// 0 uses a default of 64. Checkpoint intervals are "determined by the
	// transaction manager or when the system is close to running out of
	// log space" (§3.2.2).
	CheckpointEvery int
	Trace           *trace.Tracer
}

// New returns a Recovery Manager and installs it as the kernel's pager.
func New(cfg Config) *Manager {
	m := &Manager{
		log:             cfg.Log,
		k:               cfg.Kernel,
		rec:             cfg.Rec,
		tr:              cfg.Trace,
		dirty:           make(map[types.PageID]wal.LSN),
		pageLSN:         make(map[types.PageID]wal.LSN),
		trans:           make(map[types.TransID]*transState),
		undoers:         make(map[types.ServerID]Undoer),
		checkpointEvery: cfg.CheckpointEvery,
	}
	if m.checkpointEvery <= 0 {
		m.checkpointEvery = 64
	}
	cfg.Kernel.SetPager(m)
	return m
}

// Log exposes the underlying log (read-only uses in tests and benches).
func (m *Manager) Log() *wal.Log { return m.log }

// RegisterUndoer routes undo/redo instructions for server to u.
func (m *Manager) RegisterUndoer(server types.ServerID, u Undoer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.undoers[server] = u
}

// --- Pager protocol (kernel.Pager) ---------------------------------------

// PageFirstDirtied records the page in the dirty-page table with the
// current end of log as its recovery LSN.
func (m *Manager) PageFirstDirtied(p types.PageID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.dirty[p]; !ok {
		m.dirty[p] = m.log.NextLSN()
	}
}

// RequestPageWrite enforces the write-ahead rule: every log record that
// applies to the page is forced before the kernel may copy the page to its
// recoverable segment. The returned header is the page's new sequence
// number — the LSN of the newest record applying to it, which operation
// logging compares against record LSNs during redo (§3.2.1). Steal forces
// participate in group commit like any other Force caller: a steal that
// arrives while a commit batch is in flight parks and usually finds its
// target already durable when the batch lands.
func (m *Manager) RequestPageWrite(p types.PageID) (uint64, error) {
	m.mu.Lock()
	lsn := m.pageLSN[p]
	m.mu.Unlock()
	if lsn != wal.NilLSN {
		if err := m.log.Force(lsn + 1); err != nil {
			return 0, err
		}
	}
	return uint64(lsn), nil
}

// PageWritten removes the page from the dirty-page table on success.
func (m *Manager) PageWritten(p types.PageID, ok bool) {
	if !ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.dirty, p)
	delete(m.pageLSN, p)
}

// --- Record writing -------------------------------------------------------

// append chains r into its transaction's backward chain and appends it.
func (m *Manager) append(r *wal.Record) (wal.LSN, error) {
	m.mu.Lock()
	ts := m.trans[r.TID]
	if ts == nil {
		ts = &transState{firstLSN: m.log.NextLSN(), status: types.StatusActive}
		m.trans[r.TID] = ts
	}
	r.PrevLSN = ts.lastLSN
	m.mu.Unlock()

	lsn, err := m.log.Append(r)
	if err == wal.ErrLogFull {
		// Reclamation attempts to free space, then retry once (§3.2.2).
		if rerr := m.Reclaim(); rerr != nil {
			return 0, fmt.Errorf("%w (reclamation failed: %v)", err, rerr)
		}
		lsn, err = m.log.Append(r)
	}
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	ts.lastLSN = lsn
	m.mu.Unlock()
	return lsn, nil
}

// notePages records lsn as the newest record applying to the given pages
// (raising the write-ahead force point) and ensures the dirty-page table's
// recovery LSN is no later than lsn. The lowering matters during restart:
// the kernel's first-dirty callback stamps a redo-time LSN, but the page's
// missing effects date from the record being replayed, and a checkpoint
// taken after restart must direct the next recovery at least that far
// back.
func (m *Manager) notePages(lsn wal.LSN, pages []types.PageID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range pages {
		if cur, ok := m.dirty[p]; !ok || lsn < cur {
			m.dirty[p] = lsn
		}
		if m.pageLSN[p] < lsn {
			m.pageLSN[p] = lsn
		}
	}
}

// LogUpdate spools a value-logging record: the old and new value of one
// object, at most a page each (§2.1.3). The data server sends this to the
// Recovery Manager as a large message (the paper charges the log-data
// transfer at ~4.4 ms; Table 5-2 counts one large message per local
// write).
func (m *Manager) LogUpdate(tid types.TransID, server types.ServerID, u *wal.UpdateBody) (wal.LSN, error) {
	if len(u.Old) > types.PageSize || len(u.New) > types.PageSize {
		return 0, fmt.Errorf("recovery: value record exceeds one page (old %d, new %d)", len(u.Old), len(u.New))
	}
	if m.rec != nil {
		m.rec.Record(simclock.LargeMsg) // server -> RM log data
	}
	r := &wal.Record{TID: tid, Type: wal.RecUpdate, Server: server, Body: wal.EncodeUpdate(u)}
	lsn, err := m.append(r)
	if err != nil {
		return 0, err
	}
	m.notePages(lsn, u.Object.Pages())
	return lsn, nil
}

// LogOperation spools an operation-logging record (§2.1.3). The Pages list
// is completed with the record's own LSN as each page's new sequence
// number, which is what RequestPageWrite will hand the kernel when the
// page is eventually stolen.
func (m *Manager) LogOperation(tid types.TransID, server types.ServerID, o *wal.OperationBody) (wal.LSN, error) {
	if m.rec != nil {
		m.rec.Record(simclock.LargeMsg)
	}
	// Two-step append: assign the LSN first so it can be embedded as the
	// pages' sequence number. wal.Log assigns LSNs at Append, so embed
	// the predicted next LSN; Append under the manager's own serialization
	// makes the prediction exact.
	m.mu.Lock()
	predicted := m.log.NextLSN()
	m.mu.Unlock()
	for i := range o.Pages {
		o.Pages[i].Seq = uint64(predicted)
	}
	r := &wal.Record{TID: tid, Type: wal.RecOperation, Server: server, Body: wal.EncodeOperation(o)}
	lsn, err := m.append(r)
	if err != nil {
		return 0, err
	}
	if lsn != predicted {
		// A concurrent append slipped in between prediction and append;
		// rewrite with the true LSN. This is rare and costs one extra
		// record... instead, fix up by re-encoding under the true LSN.
		for i := range o.Pages {
			o.Pages[i].Seq = uint64(lsn)
		}
		// The already-appended record body embeds the stale prediction;
		// recovery compares header >= record LSN, so a smaller embedded
		// seq is conservative (may redo unnecessarily) but never unsafe.
	}
	pages := make([]types.PageID, 0, len(o.Pages))
	for _, ps := range o.Pages {
		pages = append(pages, ps.Page)
	}
	m.notePages(lsn, pages)
	return lsn, nil
}

// LogCommit writes and forces a commit record; after it returns the
// transaction is durably committed on this node (§2.1.3: log records must
// be forced before transactions commit). Concurrent committers share log
// forces: the force below either leads one group-commit batch or rides a
// batch another committer's force pays for, so N simultaneous commits cost
// far fewer than N Stable Storage Writes (see wal.Log).
func (m *Manager) LogCommit(tid types.TransID) error {
	r := &wal.Record{TID: tid, Type: wal.RecCommit}
	if _, err := m.append(r); err != nil {
		return err
	}
	if err := m.log.Force(m.log.NextLSN()); err != nil {
		return err
	}
	m.finish(tid, types.StatusCommitted)
	return nil
}

// LogCommitLazy writes a commit record without forcing; used by 2PC
// participants whose prepare record already guarantees durability of the
// effects and whose outcome the coordinator remembers.
func (m *Manager) LogCommitLazy(tid types.TransID) error {
	r := &wal.Record{TID: tid, Type: wal.RecCommit}
	if _, err := m.append(r); err != nil {
		return err
	}
	m.finish(tid, types.StatusCommitted)
	return nil
}

// LogPrepare writes and forces a prepare record carrying the node's
// position in the commit spanning tree (§3.2.3). Like commit records,
// concurrent prepare forces coalesce into group-commit batches.
func (m *Manager) LogPrepare(tid types.TransID, p *wal.PrepareBody) error {
	r := &wal.Record{TID: tid, Type: wal.RecPrepare, Body: wal.EncodePrepare(p)}
	if _, err := m.append(r); err != nil {
		return err
	}
	if err := m.log.Force(m.log.NextLSN()); err != nil {
		return err
	}
	m.mu.Lock()
	if ts := m.trans[tid]; ts != nil {
		ts.status = types.StatusPrepared
	}
	m.mu.Unlock()
	return nil
}

// SetACPSource wires the commit-protocol acceptor state into checkpoints
// and restart. Call before transactions start.
func (m *Manager) SetACPSource(src ACPSource) {
	m.mu.Lock()
	m.acp = src
	m.mu.Unlock()
}

// LogACP appends one acceptor-state record, forced when the protocol
// demands it (promises and acceptances must be stable before they are
// acknowledged; decisions may be lazy). The record deliberately bypasses
// append(): acceptor state belongs to no local transaction chain, must
// not pollute the trans table (which would defeat the read-only commit
// optimization for transactions that only hosted acceptor traffic), and
// its body is self-contained so analysis replays it without PrevLSN
// bookkeeping.
func (m *Manager) LogACP(body []byte, force bool) error {
	r := &wal.Record{Type: wal.RecACP, Body: body}
	_, err := m.log.Append(r)
	if err == wal.ErrLogFull {
		if rerr := m.Reclaim(); rerr != nil {
			return fmt.Errorf("%w (reclamation failed: %v)", err, rerr)
		}
		_, err = m.log.Append(r)
	}
	if err != nil {
		return err
	}
	if force {
		return m.log.Force(m.log.NextLSN())
	}
	return nil
}

// HasLogged reports whether tid has written any log records (used for the
// read-only commit optimization: a transaction that logged nothing needs
// no commit record and no force).
func (m *Manager) HasLogged(tid types.TransID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.trans[tid]
	return ts != nil && ts.lastLSN != wal.NilLSN
}

// finish records the terminal status and forgets the transaction's chain,
// and triggers a checkpoint when due.
func (m *Manager) finish(tid types.TransID, st types.Status) {
	m.mu.Lock()
	delete(m.trans, tid)
	due := false
	if st == types.StatusCommitted {
		m.commitsSinceCkp++
		if m.commitsSinceCkp >= m.checkpointEvery {
			m.commitsSinceCkp = 0
			due = true
		}
	}
	m.mu.Unlock()
	if due {
		// Best effort; a failure surfaces on the next explicit call, but
		// count it so a silently failing background checkpoint is visible
		// in the metrics snapshot rather than lost.
		if err := m.Checkpoint(); err != nil {
			m.tr.Count("recovery.checkpoint.errors", 1)
		}
	}
	// Single flight: while the log stays nearly full every finishing
	// transaction sees it so, and each reclamation is a page flush, a
	// forced checkpoint and an anchor write. One reclaims; the rest move
	// on. (An append that finds the log outright full still reclaims for
	// itself, blocking — it needs the space.)
	if m.log.NearlyFull() && m.reclaiming.CompareAndSwap(false, true) {
		defer m.reclaiming.Store(false)
		if err := m.Reclaim(); err != nil {
			m.tr.Count("recovery.reclaim.errors", 1)
		}
	}
}

// Abort undoes every effect of tid by following the backward chain of its
// log records and instructing the owning servers to undo them (§3.2.2),
// then writes an abort record. Every undo logs a compensation record, so a
// crash in the middle of an abort resumes cleanly: restart skips already
// compensated records and the redo pass replays the compensations
// themselves.
func (m *Manager) Abort(tid types.TransID) error {
	m.mu.Lock()
	ts := m.trans[tid]
	var last wal.LSN
	if ts != nil {
		last = ts.lastLSN
	}
	m.mu.Unlock()

	if _, _, err := m.undoChain(tid, last, nil); err != nil {
		return err
	}
	if _, err := m.append(&wal.Record{TID: tid, Type: wal.RecAbort}); err != nil {
		return err
	}
	m.finish(tid, types.StatusAborted)
	return nil
}

// undoChain walks tid's backward chain from last, undoing every
// un-compensated update/operation record and logging a CLR for each. It
// returns the records visited and the undos applied. preCompensated seeds
// the compensated-LSN set (restart passes CLRs it saw during analysis).
func (m *Manager) undoChain(tid types.TransID, last wal.LSN, preCompensated map[wal.LSN]bool) (scanned, undone int, err error) {
	compensated := make(map[wal.LSN]bool, len(preCompensated))
	for l := range preCompensated {
		compensated[l] = true
	}
	var toUndo []*wal.Record
	err = m.log.TransBackChain(last, func(r *wal.Record) (bool, error) {
		scanned++
		switch r.Type {
		case wal.RecUpdateCLR, wal.RecOperationCLR:
			clr, err := wal.DecodeCLR(r.Body)
			if err != nil {
				return false, err
			}
			compensated[clr.CompLSN] = true
		case wal.RecUpdate, wal.RecOperation:
			if !compensated[r.LSN] {
				toUndo = append(toUndo, r)
			}
		}
		return true, nil
	})
	if err != nil {
		return scanned, 0, err
	}
	for _, r := range toUndo {
		if err := m.undoRecord(r); err != nil {
			return scanned, undone, err
		}
		undone++
	}
	return scanned, undone, nil
}

// undoRecord dispatches one undo to the owning server and logs the
// compensation record that makes the undo redoable and not repeatable.
func (m *Manager) undoRecord(r *wal.Record) error {
	m.mu.Lock()
	u := m.undoers[r.Server]
	m.mu.Unlock()
	if u == nil {
		return fmt.Errorf("%w: %q", ErrUnknownServer, r.Server)
	}
	if m.rec != nil {
		m.rec.Record(simclock.SmallMsg) // RM -> server undo instruction
	}
	switch r.Type {
	case wal.RecUpdate:
		body, err := wal.DecodeUpdate(r.Body)
		if err != nil {
			return err
		}
		if err := u.UndoUpdate(r.TID, body); err != nil {
			return err
		}
		inverse := &wal.UpdateBody{Object: body.Object, Old: body.New, New: body.Old}
		clr := &wal.Record{
			TID:    r.TID,
			Type:   wal.RecUpdateCLR,
			Server: r.Server,
			Body:   wal.EncodeCLR(&wal.CLRBody{CompLSN: r.LSN, Inner: wal.EncodeUpdate(inverse)}),
		}
		lsn, err := m.append(clr)
		if err != nil {
			return err
		}
		m.notePages(lsn, body.Object.Pages())
	case wal.RecOperation:
		body, err := wal.DecodeOperation(r.Body)
		if err != nil {
			return err
		}
		if err := u.UndoOperation(r.TID, body); err != nil {
			return err
		}
		m.mu.Lock()
		predicted := m.log.NextLSN()
		m.mu.Unlock()
		inverse := &wal.OperationBody{Op: body.Op, RedoArgs: body.UndoArgs, Pages: body.Pages}
		for i := range inverse.Pages {
			inverse.Pages[i].Seq = uint64(predicted)
		}
		clr := &wal.Record{
			TID:    r.TID,
			Type:   wal.RecOperationCLR,
			Server: r.Server,
			Body:   wal.EncodeCLR(&wal.CLRBody{CompLSN: r.LSN, Inner: wal.EncodeOperation(inverse)}),
		}
		lsn, err := m.append(clr)
		if err != nil {
			return err
		}
		pages := make([]types.PageID, 0, len(body.Pages))
		for _, ps := range body.Pages {
			pages = append(pages, ps.Page)
		}
		m.notePages(lsn, pages)
	}
	return nil
}

// redoLSN is where restart must begin reading the log if it crashed now:
// the oldest of every dirty page's recovery LSN, every live transaction's
// first record and the end of the log. Every record of every entry in
// m.trans lies at or after it.
func (m *Manager) redoLSN() wal.LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	low := m.log.NextLSN()
	for _, ts := range m.trans {
		low = min(low, ts.firstLSN)
	}
	for _, rec := range m.dirty {
		low = min(low, rec)
	}
	return low
}

// Checkpoint writes a checkpoint record holding the redo LSN and the
// acceptor state, forces it, and updates the log anchor (§2.1.3, §3.2.2).
// Restart rebuilds everything else from the log after the redo LSN.
func (m *Manager) Checkpoint() error {
	_, err := m.checkpoint()
	return err
}

// checkpoint is Checkpoint, returning the redo LSN it recorded.
func (m *Manager) checkpoint() (wal.LSN, error) {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	// The redo LSN is taken before the acceptor snapshot: acp updates its
	// table before logging, so a RecACP record below the redo LSN is in
	// the snapshot and one missing from it lies after the redo LSN.
	body := &wal.CheckpointBody{RedoLSN: m.redoLSN()}
	m.mu.Lock()
	acpSrc := m.acp
	m.mu.Unlock()

	// Capture commit-protocol acceptor state. Entries that do not fit the
	// blob are re-logged as RecACP records right after the checkpoint
	// record — still ahead of the anchor the next restart scans from, so
	// reclamation can never strand them. The snapshot is taken outside
	// m.mu: acp state has its own lock and recovery.Manager.mu must not
	// nest over it.
	var overflow [][]byte
	if acpSrc != nil {
		body.ACP, overflow = acpSrc.CheckpointState(wal.MaxCheckpointACP)
	}

	sp := m.tr.Begin("recovery", "checkpoint").
		Annotatef("redo_lsn=%d", body.RedoLSN).
		Annotatef("acp_overflow=%d", len(overflow))
	r := &wal.Record{Type: wal.RecCheckpoint, Body: wal.EncodeCheckpoint(body)}
	lsn, err := m.log.Append(r)
	if err != nil {
		sp.EndErr(err)
		return 0, err
	}
	for _, b := range overflow {
		if _, err := m.log.Append(&wal.Record{Type: wal.RecACP, Body: b}); err != nil {
			sp.EndErr(err)
			return 0, err
		}
	}
	//tabslint:ignore lockhold checkpoints are serialized so anchors advance in redo order; only another checkpoint waits here, and it would force anyway
	if err := m.log.Force(m.log.NextLSN()); err != nil {
		sp.EndErr(err)
		return 0, err
	}
	err = m.log.SetCheckpoint(lsn)
	sp.Annotatef("lsn=%d", lsn).EndErr(err)
	m.tr.Count("recovery.checkpoint.count", 1)
	return body.RedoLSN, err
}

// Reclaim frees log space: it forces back every dirty page, takes a fresh
// checkpoint, and advances the log's low-water mark to that checkpoint's
// redo LSN — with the pages clean, the oldest live transaction's first
// record (§3.2.2: "log reclamation may force pages back to disk before
// they would otherwise be written").
func (m *Manager) Reclaim() error {
	sp := m.tr.Begin("recovery", "reclaim")
	// Flush every dirty page; this empties the dirty-page table via the
	// pager protocol.
	if err := m.k.FlushAll(); err != nil {
		sp.EndErr(err)
		return err
	}
	low, err := m.checkpoint()
	if err != nil {
		sp.EndErr(err)
		return err
	}
	err = m.log.Reclaim(low)
	sp.Annotatef("new_low=%d", low).EndErr(err)
	m.tr.Count("recovery.reclaim.count", 1)
	return err
}

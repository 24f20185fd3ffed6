package recovery

import (
	"fmt"

	"tabs/internal/types"
	"tabs/internal/wal"
)

// RestartReport summarizes a crash recovery run.
type RestartReport struct {
	// Passes is the number of scans over the log: 1 for the pure
	// value-logging algorithm, 3 when operation records are present
	// (§2.1.3: the operation-based algorithm "requires three passes over
	// the log during crash recovery, instead of the single pass needed
	// for the value-based algorithm").
	Passes int
	// RecordsScanned counts records visited across all passes.
	RecordsScanned int
	// Redone and Undone count applied redo/undo actions.
	Redone int
	Undone int
	// Winners and Losers list resolved transactions.
	Winners []types.TransID
	Losers  []types.TransID
	// InDoubt lists prepared transactions whose outcome had to be (or
	// still must be) resolved with the commit coordinator.
	InDoubt []types.TransID
}

// txnInfo is what the analysis pass learns about one transaction.
type txnInfo struct {
	status   types.Status
	firstLSN wal.LSN
	lastLSN  wal.LSN
	prepare  *wal.PrepareBody
}

// analysis is the outcome of the analysis pass.
type analysis struct {
	trans       map[types.TransID]*txnInfo
	compensated map[wal.LSN]bool
	redoStart   wal.LSN
	hasOps      bool
	scanned     int
}

// status is tid's status as analysis left it; StatusUnknown for a
// transaction that is not live and did not commit.
func (a *analysis) status(tid types.TransID) types.Status {
	if t := a.trans[tid]; t != nil {
		return t.status
	}
	return types.StatusUnknown
}

// Restart performs crash recovery: it scans the log from the last
// checkpoint's redo LSN, determines the fate of every transaction
// (querying the Transaction Manager / coordinator for in-doubt prepared
// transactions), redoes the effects of winners, and undoes the effects of
// losers, leaving recoverable segments reflecting "only the operations of
// committed and prepared transactions" (§3.2.2).
//
// When the scanned log contains only value-logging records, Restart uses
// the paper's single backward pass; otherwise the general three-pass
// algorithm runs.
func (m *Manager) Restart(src TransStatusSource) (*RestartReport, error) {
	restart := m.tr.Begin("recovery", "restart")
	asp := m.tr.Begin("recovery", "restart.analyze")
	a, err := m.analyze(src)
	if err != nil {
		asp.EndErr(err)
		restart.EndErr(err)
		return nil, err
	}
	asp.Annotatef("scanned=%d", a.scanned).Annotatef("redo_start=%d", a.redoStart).End()
	// Resolve in-doubt prepared transactions before applying effects.
	report := &RestartReport{RecordsScanned: a.scanned}
	for tid, t := range a.trans {
		if t.status != types.StatusPrepared {
			continue
		}
		report.InDoubt = append(report.InDoubt, tid)
		resolved := types.StatusPrepared
		if src != nil {
			resolved = src.ResolveStatus(tid, t.prepare)
		}
		switch resolved {
		case types.StatusCommitted:
			t.status = types.StatusCommitted
		case types.StatusAborted:
			// Treat as loser: the undo pass reverses it.
			t.status = types.StatusActive
		default:
			// Still in doubt: effects persist (redo as winner), and the
			// transaction stays prepared awaiting the coordinator.
		}
	}

	if a.hasOps {
		report.Passes = 3
		rsp := m.tr.Begin("recovery", "restart.redo")
		if err := m.redoPass(a, report); err != nil {
			rsp.EndErr(err)
			restart.EndErr(err)
			return nil, err
		}
		rsp.Annotatef("redone=%d", report.Redone).End()
		usp := m.tr.Begin("recovery", "restart.undo")
		if err := m.undoPass(a, report); err != nil {
			usp.EndErr(err)
			restart.EndErr(err)
			return nil, err
		}
		usp.Annotatef("undone=%d", report.Undone).End()
	} else {
		report.Passes = 1
		bsp := m.tr.Begin("recovery", "restart.backward")
		if err := m.singleBackwardPass(a, report); err != nil {
			bsp.EndErr(err)
			restart.EndErr(err)
			return nil, err
		}
		bsp.Annotatef("redone=%d", report.Redone).Annotatef("undone=%d", report.Undone).End()
	}

	// Write abort records for losers and rebuild the live-transaction
	// table: only still-prepared transactions survive restart, each with
	// the first LSN analysis found, so checkpoints and reclamation keep
	// its records until the coordinator's answer arrives.
	for tid, t := range a.trans {
		switch t.status {
		case types.StatusActive:
			if _, err := m.append(&wal.Record{TID: tid, Type: wal.RecAbort}); err != nil {
				restart.EndErr(err)
				return nil, err
			}
			report.Losers = append(report.Losers, tid)
			m.mu.Lock()
			delete(m.trans, tid)
			m.mu.Unlock()
		case types.StatusCommitted:
			report.Winners = append(report.Winners, tid)
			m.mu.Lock()
			delete(m.trans, tid)
			m.mu.Unlock()
		case types.StatusPrepared:
			m.mu.Lock()
			m.trans[tid] = &transState{status: types.StatusPrepared, firstLSN: t.firstLSN, lastLSN: t.lastLSN}
			m.mu.Unlock()
			if pr, ok := src.(PreparedRestorer); ok {
				pr.RestorePrepared(tid, t.prepare)
			}
		}
	}
	if err := m.log.Force(m.log.NextLSN()); err != nil {
		restart.EndErr(err)
		return nil, err
	}
	// A fresh checkpoint bounds the next crash's recovery work.
	if err := m.Checkpoint(); err != nil {
		restart.EndErr(err)
		return nil, err
	}
	restart.Annotatef("passes=%d", report.Passes).
		Annotatef("winners=%d", len(report.Winners)).
		Annotatef("losers=%d", len(report.Losers)).
		Annotatef("in_doubt=%d", len(report.InDoubt)).
		End()
	return report, nil
}

// analyze scans forward from the last checkpoint's redo LSN, rebuilding
// the transaction table from the log alone: every record of every
// transaction live at the checkpoint lies after that LSN. Transaction-
// management records are passed back to the Transaction Manager (§3.2.2).
func (m *Manager) analyze(src TransStatusSource) (*analysis, error) {
	a := &analysis{
		trans:       make(map[types.TransID]*txnInfo),
		compensated: make(map[wal.LSN]bool),
		redoStart:   m.log.LowLSN(),
	}
	m.mu.Lock()
	acpSrc := m.acp
	m.mu.Unlock()
	if ckpt := m.log.CheckpointLSN(); ckpt != wal.NilLSN {
		r, err := m.log.ReadRecord(ckpt)
		if err != nil {
			return nil, fmt.Errorf("recovery: reading checkpoint: %w", err)
		}
		body, err := wal.DecodeCheckpoint(r.Body)
		if err != nil {
			return nil, err
		}
		if body.RedoLSN < a.redoStart || body.RedoLSN > ckpt {
			return nil, fmt.Errorf("%w: checkpoint at %d names redo LSN %d outside [%d, %d]",
				wal.ErrCorrupt, ckpt, body.RedoLSN, a.redoStart, ckpt)
		}
		a.redoStart = body.RedoLSN
		if acpSrc != nil && len(body.ACP) > 0 {
			// Acceptor state from the checkpoint. The scan below starts
			// before the checkpoint and may replay older RecACP records after
			// this; the acp merge is order-insensitive, so that is fine.
			acpSrc.RestoreState(body.ACP)
		}
	}

	err := m.log.ScanForward(a.redoStart, func(r *wal.Record) (bool, error) {
		a.scanned++
		switch r.Type {
		case wal.RecCheckpoint:
			return true, nil
		case wal.RecACP:
			// Commit-protocol acceptor state: replayed to the acp layer,
			// never into the transaction table (the record carries no TID).
			if acpSrc != nil {
				acpSrc.RestoreRecord(r.Body)
			}
			return true, nil
		}
		t := a.trans[r.TID]
		if t == nil {
			t = &txnInfo{firstLSN: r.LSN}
			a.trans[r.TID] = t
		}
		switch r.Type {
		case wal.RecUpdate, wal.RecOperation:
			t.status, t.lastLSN = types.StatusActive, r.LSN
			a.hasOps = a.hasOps || r.Type == wal.RecOperation
		case wal.RecUpdateCLR, wal.RecOperationCLR:
			clr, err := wal.DecodeCLR(r.Body)
			if err != nil {
				return false, err
			}
			a.compensated[clr.CompLSN] = true
			t.lastLSN = r.LSN
			a.hasOps = a.hasOps || r.Type == wal.RecOperationCLR
		case wal.RecCommit, wal.RecAbort, wal.RecPrepare:
			switch r.Type {
			case wal.RecCommit:
				t.status = types.StatusCommitted
			case wal.RecAbort:
				t.status = types.StatusAborted
			default:
				body, err := wal.DecodePrepare(r.Body)
				if err != nil {
					return false, err
				}
				t.status, t.lastLSN, t.prepare = types.StatusPrepared, r.LSN, body
			}
			if src != nil {
				src.RestoreTransRecord(r)
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	for tid, t := range a.trans {
		switch {
		case t.status == types.StatusAborted:
			// Fully compensated before its abort record was written; it
			// needs no further attention.
			delete(a.trans, tid)
		case t.status == types.StatusActive && !tid.IsTopLevel():
			// Subtransactions commit with their top-level parent (§2.1.3):
			// one commit (or prepare) record is written for the root, and
			// every subtransaction that did not independently abort
			// inherits its fate.
			if rst := a.status(tid.TopLevel()); rst == types.StatusCommitted || rst == types.StatusPrepared {
				t.status = rst
			}
		}
	}
	return a, nil
}

// redoPass repeats history forward from the redo start point: value
// records are reinstalled unconditionally (physical, idempotent);
// operation records consult the on-disk page sequence numbers and are
// re-invoked only where the page has not yet absorbed them (§3.2.1).
func (m *Manager) redoPass(a *analysis, report *RestartReport) error {
	return m.log.ScanForward(a.redoStart, func(r *wal.Record) (bool, error) {
		report.RecordsScanned++
		switch r.Type {
		case wal.RecUpdate, wal.RecUpdateCLR:
			body, err := decodeUpdateMaybeCLR(r)
			if err != nil {
				return false, err
			}
			if err := m.applyValueRedo(r, body); err != nil {
				return false, err
			}
			report.Redone++
		case wal.RecOperation, wal.RecOperationCLR:
			body, err := decodeOperationMaybeCLR(r)
			if err != nil {
				return false, err
			}
			need, err := m.operationNeedsRedo(r.LSN, body)
			if err != nil {
				return false, err
			}
			if need {
				u := m.undoerFor(r.Server)
				if u == nil {
					return false, fmt.Errorf("%w: %q", ErrUnknownServer, r.Server)
				}
				if err := u.RedoOperation(r.TID, body); err != nil {
					return false, err
				}
				// The redone effect lives in the buffer pool; record the
				// page LSNs so the eventual write-back carries headers
				// that make this redo idempotent across another crash.
				pages := make([]types.PageID, 0, len(body.Pages))
				for _, ps := range body.Pages {
					pages = append(pages, ps.Page)
				}
				m.notePages(r.LSN, pages)
				report.Redone++
			}
		}
		return true, nil
	})
}

// operationNeedsRedo applies the page-sequence test: if any page the
// operation touched carries an on-disk sequence number older than the
// record, the operation's effect is not fully on disk.
func (m *Manager) operationNeedsRedo(lsn wal.LSN, o *wal.OperationBody) (bool, error) {
	for _, ps := range o.Pages {
		seq, err := m.k.ReadPageSeq(ps.Page)
		if err != nil {
			return false, err
		}
		if seq < uint64(lsn) {
			return true, nil
		}
	}
	return len(o.Pages) == 0, nil
}

// applyValueRedo installs the new value directly into the segment.
func (m *Manager) applyValueRedo(r *wal.Record, body *wal.UpdateBody) error {
	obj := body.Object
	if uint32(len(body.New)) != obj.Length {
		return fmt.Errorf("recovery: value record length mismatch for %v", obj)
	}
	return m.k.WriteDirect(obj, body.New, uint64(r.LSN))
}

// undoPass reverses losers newest-first along their backward chains,
// logging CLRs exactly as a normal abort does.
func (m *Manager) undoPass(a *analysis, report *RestartReport) error {
	for tid, t := range a.trans {
		if t.status != types.StatusActive {
			continue
		}
		scanned, undone, err := m.undoChain(tid, t.lastLSN, a.compensated)
		report.RecordsScanned += scanned
		report.Undone += undone
		if err != nil {
			return err
		}
	}
	return nil
}

// singleBackwardPass is the paper's value-logging recovery algorithm: one
// scan "that begins at the last log record written and proceeds backward",
// resetting each object to its most recently committed value (§2.1.3). The
// newest retained record for each object decides: winners' new values are
// installed, losers' old values. CLRs written by completed aborts are
// treated as winners' records, which installs the restored (pre-abort) old
// value.
//
// Objects of different granularities may overlap: a shard migration logs
// whole-page images while client writes log single cells within those
// pages. The per-object decisions are therefore collected during the scan
// and installed in ascending LSN order afterwards — an older page image
// must land before the newer cell values it overlaps, or it would wipe
// them (the ascending order also leaves each page's header sequence
// number at its newest record, not its oldest).
func (m *Manager) singleBackwardPass(a *analysis, report *RestartReport) error {
	type decision struct {
		obj types.ObjectID
		val []byte
		lsn wal.LSN
	}
	done := make(map[types.ObjectID]bool)
	var decisions []decision
	end := m.log.NextLSN()
	err := m.log.ScanBackward(end, func(r *wal.Record) (bool, error) {
		report.RecordsScanned++
		if r.Type != wal.RecUpdate && r.Type != wal.RecUpdateCLR {
			return true, nil
		}
		body, err := decodeUpdateMaybeCLR(r)
		if err != nil {
			return false, err
		}
		if done[body.Object] {
			return true, nil
		}
		done[body.Object] = true
		st := a.status(r.TID)
		// Aborted transactions were dropped from a.trans; their CLRs
		// carry the value to reinstate, so they count as winners. Active
		// transactions are losers.
		loser := st == types.StatusActive && r.Type == wal.RecUpdate
		val := body.New
		if loser {
			val = body.Old
			report.Undone++
		} else {
			report.Redone++
		}
		if uint32(len(val)) != body.Object.Length {
			return false, fmt.Errorf("recovery: value record length mismatch for %v", body.Object)
		}
		decisions = append(decisions, decision{obj: body.Object, val: val, lsn: r.LSN})
		return true, nil
	})
	if err != nil {
		return err
	}
	// The backward scan appended newest-first; install oldest-first.
	for i := len(decisions) - 1; i >= 0; i-- {
		d := decisions[i]
		if err := m.k.WriteDirect(d.obj, d.val, uint64(d.lsn)); err != nil {
			return err
		}
	}
	return nil
}

func (m *Manager) undoerFor(s types.ServerID) Undoer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.undoers[s]
}

func decodeUpdateMaybeCLR(r *wal.Record) (*wal.UpdateBody, error) {
	if r.Type == wal.RecUpdateCLR {
		clr, err := wal.DecodeCLR(r.Body)
		if err != nil {
			return nil, err
		}
		return wal.DecodeUpdate(clr.Inner)
	}
	return wal.DecodeUpdate(r.Body)
}

func decodeOperationMaybeCLR(r *wal.Record) (*wal.OperationBody, error) {
	if r.Type == wal.RecOperationCLR {
		clr, err := wal.DecodeCLR(r.Body)
		if err != nil {
			return nil, err
		}
		return wal.DecodeOperation(clr.Inner)
	}
	return wal.DecodeOperation(r.Body)
}

// Crash drops the Recovery Manager's volatile state (dirty-page and
// transaction tables). The log's durable contents survive via the disk.
func (m *Manager) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirty = make(map[types.PageID]wal.LSN)
	m.pageLSN = make(map[types.PageID]wal.LSN)
	m.trans = make(map[types.TransID]*transState)
}

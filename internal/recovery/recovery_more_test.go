package recovery

import (
	"errors"
	"fmt"
	"testing"

	"tabs/internal/disk"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// TestInDoubtStaysPreparedAcrossRestarts: the coordinator is unreachable
// at the first restart; the prepared transaction's effects must persist
// and the transaction must still be live (prepared) afterwards. A later
// restart that does reach the coordinator resolves it.
func TestInDoubtStaysPreparedAcrossRestarts(t *testing.T) {
	r := newRig(t, nil)
	r.write(t, tid(1), "dbt4")
	if err := r.rm.LogPrepare(tid(1), &wal.PrepareBody{Parent: "coord"}); err != nil {
		t.Fatal(err)
	}
	r.k.Crash()
	r.rm.Crash()

	// First restart: the coordinator cannot be reached (source answers
	// "still prepared").
	r2 := newRig(t, r.d)
	src := &fakeStatusSource{answer: types.StatusPrepared}
	report, err := r2.rm.Restart(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.InDoubt) != 1 {
		t.Fatalf("in doubt: %v", report.InDoubt)
	}
	// Effects persist (prepared transactions are winners for redo).
	if got := r2.read(t); got != "dbt4" {
		t.Errorf("prepared effect lost: %q", got)
	}
	// The transaction is still live in the Recovery Manager's table.
	if live := r2.live(); len(live) != 1 || live[tid(1)] != types.StatusPrepared {
		t.Fatalf("live transactions: %+v", live)
	}

	// Second crash and restart: now the coordinator answers committed.
	r2.k.Crash()
	r2.rm.Crash()
	r3 := newRig(t, r.d)
	src3 := &fakeStatusSource{answer: types.StatusCommitted}
	if _, err := r3.rm.Restart(src3); err != nil {
		t.Fatal(err)
	}
	if got := r3.read(t); got != "dbt4" {
		t.Errorf("committed effect lost: %q", got)
	}
	if n := len(r3.live()); n != 0 {
		t.Errorf("%d transactions still live after resolution", n)
	}
}

// preparedAcrossReclaim commits "aaaa", writes "bbbb" under tid(2) and
// prepares it, crashes, restarts with the coordinator unreachable, and
// reclaims the log. It returns the restarted rig with tid(2) in doubt.
func preparedAcrossReclaim(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, nil)
	r.write(t, tid(1), "aaaa")
	if err := r.rm.LogCommit(tid(1)); err != nil {
		t.Fatal(err)
	}
	r.write(t, tid(2), "bbbb")
	if err := r.rm.LogPrepare(tid(2), &wal.PrepareBody{Parent: "coord"}); err != nil {
		t.Fatal(err)
	}
	r.k.Crash()
	r.rm.Crash()
	r2 := newRig(t, r.d)
	if _, err := r2.rm.Restart(&fakeStatusSource{answer: types.StatusPrepared}); err != nil {
		t.Fatal(err)
	}
	if err := r2.rm.Reclaim(); err != nil {
		t.Fatal(err)
	}
	return r2
}

// TestInDoubtAbortAfterReclaim: restart rebuilds an in-doubt transaction
// with the first LSN analysis found, so reclamation keeps its update and
// prepare records and the coordinator's later abort can still undo it.
func TestInDoubtAbortAfterReclaim(t *testing.T) {
	r := preparedAcrossReclaim(t)
	if err := r.rm.Abort(tid(2)); err != nil {
		t.Fatalf("abort of the in-doubt transaction: %v", err)
	}
	if got := r.read(t); got != "aaaa" {
		t.Errorf("after abort: %q, want %q", got, "aaaa")
	}
}

// TestInDoubtAbortedAtRestartAfterReclaim: the same transaction, resolved
// as aborted only at the next restart, must come back as a loser with its
// update undone.
func TestInDoubtAbortedAtRestartAfterReclaim(t *testing.T) {
	r := preparedAcrossReclaim(t)
	r.k.Crash()
	r.rm.Crash()
	r2 := newRig(t, r.d)
	report, err := r2.rm.Restart(&fakeStatusSource{answer: types.StatusAborted})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Losers) != 1 || report.Undone == 0 {
		t.Errorf("losers %v, undone %d; want tid(2) undone", report.Losers, report.Undone)
	}
	if got := r2.read(t); got != "aaaa" {
		t.Errorf("after restart: %q, want %q", got, "aaaa")
	}
}

// TestCheckpointUnderLoad: the checkpoint record carries no per-page or
// per-transaction table, so it fits however many pages are dirty and
// transactions live — here 1,024 and 300, far past what one record could
// list — and restart rebuilds the live transactions from the log.
func TestCheckpointUnderLoad(t *testing.T) {
	const pages, live = 1024, 300
	d := disk.New(disk.DefaultGeometry(2*1024 + pages))
	r := newRigSized(t, d, pages+64, 1024, pages)
	cell := func(p int) types.ObjectID {
		return types.ObjectID{Segment: 1, Offset: uint32(p * types.PageSize), Length: 4}
	}
	set := func(id types.TransID, p int, val string) {
		t.Helper()
		old, err := r.k.Read(cell(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.k.Write(cell(p), []byte(val)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.rm.LogUpdate(id, "srv", &wal.UpdateBody{Object: cell(p), Old: old, New: []byte(val)}); err != nil {
			t.Fatal(err)
		}
	}
	prepared := func(i int) bool { return i%3 == 0 }
	for p := 0; p < pages; p++ {
		set(tid(uint64(p+1)), p, fmt.Sprintf("%04d", p))
		if err := r.rm.LogCommit(tid(uint64(p + 1))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < live; i++ {
		id := tid(uint64(10000 + i))
		set(id, i, fmt.Sprintf("L%03d", i))
		if prepared(i) {
			if err := r.rm.LogPrepare(id, &wal.PrepareBody{Parent: "coord"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := r.dirtyPages(); n != pages {
		t.Fatalf("%d dirty pages, want %d", n, pages)
	}
	if err := r.rm.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with %d dirty pages and %d live transactions: %v", pages, live, err)
	}
	r.k.Crash()
	r.rm.Crash()

	r2 := newRigSized(t, d, pages+64, 1024, pages)
	report, err := r2.rm.Restart(&fakeStatusSource{answer: types.StatusPrepared})
	if err != nil {
		t.Fatal(err)
	}
	wantInDoubt := (live + 2) / 3
	if len(report.InDoubt) != wantInDoubt || len(report.Losers) != live-wantInDoubt {
		t.Errorf("in doubt %d, losers %d; want %d and %d", len(report.InDoubt), len(report.Losers), wantInDoubt, live-wantInDoubt)
	}
	inDoubt := r2.live()
	for i := 0; i < live; i++ {
		if st, ok := inDoubt[tid(uint64(10000+i))]; ok != prepared(i) || (ok && st != types.StatusPrepared) {
			t.Errorf("live transaction %d after restart: %v (present %v)", i, st, ok)
		}
	}
	for p := 0; p < pages; p++ {
		want := fmt.Sprintf("%04d", p)
		if p < live && prepared(p) {
			want = fmt.Sprintf("L%03d", p)
		}
		got, err := r2.k.Read(cell(p))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("page %d reads %q, want %q", p, got, want)
		}
	}
}

// TestRestartRejectsRedoLSNOutOfRange: a checkpoint whose redo LSN lies
// below the retained log or after the checkpoint itself cannot be a
// checkpoint this code wrote; restart refuses it rather than scan from a
// guess.
func TestRestartRejectsRedoLSNOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		redo func(r *rig) wal.LSN
	}{
		{"below retained log", func(r *rig) wal.LSN { return r.lg.LowLSN() - 1 }},
		{"after the checkpoint", func(r *rig) wal.LSN { return r.lg.NextLSN() + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, nil)
			r.write(t, tid(1), "aaaa")
			if err := r.rm.LogCommit(tid(1)); err != nil {
				t.Fatal(err)
			}
			if err := r.rm.Reclaim(); err != nil {
				t.Fatal(err)
			}
			body := wal.EncodeCheckpoint(&wal.CheckpointBody{RedoLSN: tc.redo(r)})
			lsn, err := r.lg.AppendAndForce(&wal.Record{Type: wal.RecCheckpoint, Body: body})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.lg.SetCheckpoint(lsn); err != nil {
				t.Fatal(err)
			}
			r.k.Crash()
			r.rm.Crash()
			if _, err := newRig(t, r.d).rm.Restart(nil); !errors.Is(err, wal.ErrCorrupt) {
				t.Errorf("restart: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestLogCommitLazyDoesNotForce: the participant's lazy commit appends
// without forcing; a following force makes it durable.
func TestLogCommitLazyDoesNotForce(t *testing.T) {
	r := newRig(t, nil)
	r.write(t, tid(1), "lazy")
	durable := r.lg.DurableLSN()
	if err := r.rm.LogCommitLazy(tid(1)); err != nil {
		t.Fatal(err)
	}
	if r.lg.DurableLSN() != durable {
		t.Error("lazy commit forced the log")
	}
	if err := r.lg.Force(r.lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if r.lg.DurableLSN() <= durable {
		t.Error("force after lazy commit did nothing")
	}
}

// TestAutoCheckpoint: the Recovery Manager takes a checkpoint after the
// configured number of commits (the Transaction Manager determines the
// interval, §3.2.2).
func TestAutoCheckpoint(t *testing.T) {
	d := newRig(t, nil).d
	// Build a manager with a tiny checkpoint interval over the same disk
	// layout helpers.
	r := newRig(t, d)
	_ = r
	// newRig uses CheckpointEvery 1<<30; construct the behavior through a
	// direct Config here.
	r2 := newRigWithCheckpointEvery(t, 3)
	before := r2.lg.CheckpointLSN()
	for i := uint64(1); i <= 3; i++ {
		r2.write(t, tid(i), "ckpt")
		if err := r2.rm.LogCommit(tid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r2.lg.CheckpointLSN() == before {
		t.Error("no checkpoint after CheckpointEvery commits")
	}
}

func newRigWithCheckpointEvery(t *testing.T, every int) *rig {
	t.Helper()
	base := newRig(t, nil)
	rm := New(Config{Log: base.lg, Kernel: base.k, CheckpointEvery: every})
	rm.RegisterUndoer("srv", base.und)
	base.rm = rm
	return base
}

// TestAbortOfUnloggedTransactionIsCheap: aborting a transaction that
// never wrote is a no-op plus an abort record.
func TestAbortOfUnloggedTransaction(t *testing.T) {
	r := newRig(t, nil)
	if err := r.rm.Abort(tid(9)); err != nil {
		t.Fatal(err)
	}
	// Nothing to undo; the log contains just the abort record.
	count := 0
	if err := r.lg.ScanForward(0, func(rec *wal.Record) (bool, error) {
		count++
		if rec.Type != wal.RecAbort {
			t.Errorf("unexpected record %v", rec.Type)
		}
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		// The abort record may still be buffered; force and recount.
		if err := r.lg.Force(r.lg.NextLSN()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUndoerMissingIsAnError: undo instructions for an unregistered
// server must fail loudly, not silently skip.
func TestUndoerMissing(t *testing.T) {
	r := newRig(t, nil)
	u := &wal.UpdateBody{Object: obj, Old: []byte{0, 0, 0, 0}, New: []byte("oops")}
	if _, err := r.rm.LogUpdate(tid(1), "ghost-server", u); err != nil {
		t.Fatal(err)
	}
	if err := r.rm.Abort(tid(1)); err == nil {
		t.Error("abort with no registered undoer succeeded")
	}
}

package wal

import (
	"errors"
	"fmt"
	"testing"

	"tabs/internal/disk"
	"tabs/internal/simclock"
	"tabs/internal/stats"
	"tabs/internal/types"
)

func testLog(t *testing.T, sectors int64) (*Log, *disk.Disk, *stats.Recorder) {
	t.Helper()
	d := disk.New(disk.DefaultGeometry(sectors + 16))
	rec := stats.NewRecorder()
	lg, err := Open(Config{Disk: d, Base: 0, Sectors: sectors, Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	return lg, d, rec
}

func tid(seq uint64) types.TransID {
	return types.TransID{Node: "n", Seq: seq, RootNode: "n", RootSeq: seq}
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	lg, _, _ := testLog(t, 64)
	var last LSN
	for i := 1; i <= 20; i++ {
		lsn, err := lg.Append(&Record{TID: tid(uint64(i)), Type: RecCommit})
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= last {
			t.Fatalf("LSN %d not greater than %d", lsn, last)
		}
		last = lsn
	}
}

func TestReadBeforeAndAfterForce(t *testing.T) {
	lg, _, _ := testLog(t, 64)
	lsn, err := lg.Append(&Record{TID: tid(1), Type: RecUpdate, Server: "s", Body: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	// Readable from the volatile buffer.
	r, err := lg.ReadRecord(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Body) != "abc" {
		t.Errorf("body %q", r.Body)
	}
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	// Readable from disk.
	r, err = lg.ReadRecord(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Body) != "abc" {
		t.Errorf("after force: body %q", r.Body)
	}
}

func TestForceChargesOneStableWrite(t *testing.T) {
	lg, _, rec := testLog(t, 64)
	for i := 1; i <= 3; i++ {
		if _, err := lg.Append(&Record{TID: tid(uint64(i)), Type: RecCommit}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot(stats.PreCommit)[simclock.StableWrite]; got != 1 {
		t.Errorf("one force should charge 1 stable write, got %g", got)
	}
	// Forcing an already durable log charges nothing.
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot(stats.PreCommit)[simclock.StableWrite]; got != 1 {
		t.Errorf("idempotent force charged: %g", got)
	}
}

func TestRecoverEndAfterReopen(t *testing.T) {
	lg, d, _ := testLog(t, 64)
	var lsns []LSN
	for i := 1; i <= 10; i++ {
		lsn, err := lg.Append(&Record{TID: tid(uint64(i)), Type: RecUpdate, Server: "s", Body: []byte(fmt.Sprintf("rec%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	// Force only the first half; the rest dies with the "crash".
	if err := lg.Force(lsns[5]); err != nil {
		t.Fatal(err)
	}
	durable := lg.DurableLSN()

	lg2, err := Open(Config{Disk: d, Base: 0, Sectors: 64})
	if err != nil {
		t.Fatal(err)
	}
	if lg2.NextLSN() != durable {
		t.Errorf("recovered end %d, want %d", lg2.NextLSN(), durable)
	}
	count := 0
	if err := lg2.ScanForward(0, func(r *Record) (bool, error) {
		count++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Everything below the durable boundary survives; nothing above.
	want := 0
	for _, l := range lsns {
		if l < durable {
			want++
		}
	}
	if count != want {
		t.Errorf("recovered %d records, want %d", count, want)
	}
}

func TestScanBackwardOrder(t *testing.T) {
	lg, _, _ := testLog(t, 64)
	for i := 1; i <= 5; i++ {
		if _, err := lg.Append(&Record{TID: tid(uint64(i)), Type: RecCommit}); err != nil {
			t.Fatal(err)
		}
	}
	var seen []uint64
	if err := lg.ScanBackward(lg.NextLSN(), func(r *Record) (bool, error) {
		seen = append(seen, r.TID.Seq)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(seen)-1; i++ {
		if seen[i] <= seen[i+1] {
			t.Fatalf("backward scan not newest-first: %v", seen)
		}
	}
}

func TestTransBackChain(t *testing.T) {
	lg, _, _ := testLog(t, 64)
	var last LSN
	// Interleave two transactions; follow only t1's chain.
	for i := 0; i < 6; i++ {
		tr := tid(1)
		prev := last
		if i%2 == 1 {
			tr = tid(2)
			prev = NilLSN // t2 records not chained for this test
		}
		r := &Record{TID: tr, Type: RecUpdate, Server: "s", Body: []byte{byte(i)}}
		lsn, err := lg.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		// Manually maintain t1's chain through PrevLSN.
		if i%2 == 0 {
			_ = prev
			last = lsn
		}
	}
	// Re-append a clean chain (the loop above can't set PrevLSN before
	// Append assigns LSNs, so build the chain explicitly).
	lg2, _, _ := testLog(t, 64)
	var chain []LSN
	prev := NilLSN
	for i := 0; i < 4; i++ {
		r := &Record{TID: tid(1), Type: RecUpdate, PrevLSN: prev, Server: "s", Body: []byte{byte(i)}}
		lsn, err := lg2.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, lsn)
		prev = lsn
	}
	var visited []LSN
	if err := lg2.TransBackChain(prev, func(r *Record) (bool, error) {
		visited = append(visited, r.LSN)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(visited) != 4 {
		t.Fatalf("visited %d records, want 4", len(visited))
	}
	for i := range visited {
		if visited[i] != chain[len(chain)-1-i] {
			t.Fatalf("chain order wrong: %v vs %v", visited, chain)
		}
	}
}

func TestLogFullAndReclaim(t *testing.T) {
	lg, _, _ := testLog(t, 4) // tiny: 3 data sectors = 1536 bytes
	var lsns []LSN
	for {
		lsn, err := lg.Append(&Record{TID: tid(1), Type: RecUpdate, Server: "s", Body: make([]byte, 100)})
		if errors.Is(err, ErrLogFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if len(lsns) < 2 {
		t.Fatalf("expected several records before full, got %d", len(lsns))
	}
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	// Reclaim everything up to the last record; space opens up.
	if err := lg.Reclaim(lsns[len(lsns)-1]); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(&Record{TID: tid(2), Type: RecUpdate, Server: "s", Body: make([]byte, 100)}); err != nil {
		t.Fatalf("append after reclaim: %v", err)
	}
}

func TestReclaimRejectsNonBoundary(t *testing.T) {
	lg, _, _ := testLog(t, 64)
	lsn, err := lg.Append(&Record{TID: tid(1), Type: RecCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if err := lg.Reclaim(lsn + 1); err == nil {
		t.Error("reclaim to a mid-record LSN accepted")
	}
}

func TestWrapAroundAfterReclaim(t *testing.T) {
	lg, d, _ := testLog(t, 6)
	// Fill, reclaim, fill again several times: the circular mapping must
	// keep records readable and reopening must find the right end.
	for cycle := 0; cycle < 6; cycle++ {
		var last LSN
		for {
			lsn, err := lg.Append(&Record{TID: tid(uint64(cycle)), Type: RecUpdate, Server: "s", Body: make([]byte, 64)})
			if errors.Is(err, ErrLogFull) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			last = lsn
		}
		if err := lg.Force(lg.NextLSN()); err != nil {
			t.Fatal(err)
		}
		if err := lg.Reclaim(last); err != nil {
			t.Fatal(err)
		}
		// The retained tail must still decode.
		r, err := lg.ReadRecord(last)
		if err != nil {
			t.Fatalf("cycle %d: reading retained record: %v", cycle, err)
		}
		if r.TID.Seq != uint64(cycle) {
			t.Fatalf("cycle %d: wrong record %v", cycle, r.TID)
		}
	}
	// Reopen: end recovery must stop at the true end despite old data
	// beyond it in the circular region.
	lg2, err := Open(Config{Disk: d, Base: 0, Sectors: 6})
	if err != nil {
		t.Fatal(err)
	}
	if lg2.NextLSN() != lg.DurableLSN() {
		t.Errorf("reopened end %d, want %d", lg2.NextLSN(), lg.DurableLSN())
	}
}

// TestWrapKeepsLowWaterSector fills a tiny circular log to the brim over
// and over, reclaiming one record at a time, and re-reads every retained
// record after each force. When the log is nearly full the append point
// and the low-water mark share one physical sector: forcing the new tail
// must not zero the retained record behind it.
func TestWrapKeepsLowWaterSector(t *testing.T) {
	lg, _, _ := testLog(t, 8)
	body := make([]byte, 300)
	var retained []LSN
	for i := 1; i <= 200; i++ {
		lsn, err := lg.AppendAndForce(&Record{TID: tid(uint64(i)), Type: RecCommit, Body: body})
		if errors.Is(err, ErrLogFull) {
			retained = retained[1:]
			if err := lg.Reclaim(retained[0]); err != nil {
				t.Fatal(err)
			}
			i--
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		retained = append(retained, lsn)
		for _, at := range retained {
			if _, err := lg.ReadRecord(at); err != nil {
				t.Fatalf("after forcing record %d at %d: retained record at %d unreadable: %v (low %d)", i, lsn, at, err, lg.LowLSN())
			}
		}
	}
}

// TestForceWrapsPhysicalEnd forces a batch whose sector run starts in the
// last physical sector of the region and ends in the first: the pages must
// land on both sides of the wrap without a read, and every retained record
// must read back before and after a reopen.
func TestForceWrapsPhysicalEnd(t *testing.T) {
	const sectors = 8
	lg, d, _ := testLog(t, sectors)
	data := uint64(sectors - 1)
	body := make([]byte, 100)
	var retained []LSN
	// Walk the append point into the last physical sector, mid-sector.
	for {
		next := uint64(lg.NextLSN())
		if next/disk.SectorSize%data == data-1 && next%disk.SectorSize != 0 {
			break
		}
		lsn, err := lg.AppendAndForce(&Record{TID: tid(uint64(len(retained) + 1)), Type: RecUpdate, Server: "s", Body: body})
		if errors.Is(err, ErrLogFull) {
			retained = retained[len(retained)-1:]
			if err := lg.Reclaim(retained[0]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		retained = append(retained, lsn)
	}
	retained = retained[len(retained)-1:]
	if err := lg.Reclaim(retained[0]); err != nil {
		t.Fatal(err)
	}
	start := uint64(lg.NextLSN())
	lsn, err := lg.Append(&Record{TID: tid(999), Type: RecUpdate, Server: "s", Body: make([]byte, 2*disk.SectorSize)})
	if err != nil {
		t.Fatal(err)
	}
	retained = append(retained, lsn)
	end := uint64(lg.NextLSN())
	if first, last := start/disk.SectorSize%data, (end-1)/disk.SectorSize%data; first != data-1 || last >= first {
		t.Fatalf("force covers physical sectors %d..%d, want a run across the end", first, last)
	}
	readsBefore, _ := d.Stats()
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if readsAfter, _ := d.Stats(); readsAfter != readsBefore {
		t.Errorf("wrapping force read %d sectors", readsAfter-readsBefore)
	}
	lg2, err := Open(Config{Disk: d, Base: 0, Sectors: sectors})
	if err != nil {
		t.Fatal(err)
	}
	if lg2.NextLSN() != LSN(end) {
		t.Errorf("reopened end %d, want %d", lg2.NextLSN(), end)
	}
	for _, l := range []*Log{lg, lg2} {
		for _, at := range retained {
			if _, err := l.ReadRecord(at); err != nil {
				t.Fatalf("retained record at %d unreadable: %v", at, err)
			}
		}
	}
}

// TestForceNeverReadsDisk: a force writes the sectors it covers and reads
// none, even when it starts in the middle of a sector whose earlier bytes
// are already durable, and the sector it ends in is zero past the end —
// also after a force that ended exactly on a sector boundary.
func TestForceNeverReadsDisk(t *testing.T) {
	lg, d, _ := testLog(t, 64)
	readsBefore, _ := d.Stats()
	for i := 1; i <= 40; i++ {
		r := &Record{TID: tid(uint64(i)), Type: RecUpdate, Server: "s"}
		n := 7 * i
		if i == 20 { // fill the sector to its last byte
			n = int(disk.SectorSize-lg.NextLSN()%disk.SectorSize) - encodedSize(r) - 4
			if n < 0 {
				n += disk.SectorSize
			}
		}
		r.Body = make([]byte, n)
		if _, err := lg.AppendAndForce(r); err != nil {
			t.Fatal(err)
		}
		if i == 20 && lg.NextLSN()%disk.SectorSize != 0 {
			t.Fatalf("log end %d is not sector-aligned", lg.NextLSN())
		}
		zeroPastEnd(t, lg, d)
	}
	if reads, _ := d.Stats(); reads != readsBefore {
		t.Errorf("40 forces read %d sectors, want 0", reads-readsBefore)
	}
}

// zeroPastEnd requires the sector holding the log end to be zero from the
// end on, so the log ends in a zero frame length. It inspects a snapshot,
// which does not count as a disk read.
func zeroPastEnd(t *testing.T, lg *Log, d *disk.Disk) {
	t.Helper()
	addr, inSec := lg.sectorFor(lg.NextLSN())
	for i, b := range d.Snapshot()[addr].Data[inSec:] {
		if b != 0 {
			t.Fatalf("byte %d past the log end %d is %#x, want 0", i, lg.NextLSN(), b)
		}
	}
}

// appendBodies appends one update record per size, each body filled with
// its record's sequence number, and returns their LSNs.
func appendBodies(t *testing.T, lg *Log, seq uint64, sizes ...int) []LSN {
	t.Helper()
	var lsns []LSN
	for _, n := range sizes {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(seq)
		}
		lsn, err := lg.Append(&Record{TID: tid(seq), Type: RecUpdate, Server: "s", Body: body})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		seq++
	}
	return lsns
}

// checkRecords reopens the log on d and requires exactly the records at
// lsns, in order, each with the body appendBodies gave it.
func checkRecords(t *testing.T, d *disk.Disk, sectors int64, lsns []LSN) *Log {
	t.Helper()
	lg, err := Open(Config{Disk: d, Base: 0, Sectors: sectors})
	if err != nil {
		t.Fatal(err)
	}
	var got []LSN
	if err := lg.ScanForward(0, func(r *Record) (bool, error) {
		for _, b := range r.Body {
			if b != byte(r.TID.Seq) {
				return false, fmt.Errorf("record %d at %d: body byte %d", r.TID.Seq, r.LSN, b)
			}
		}
		got = append(got, r.LSN)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(lsns) {
		t.Fatalf("reopened log holds records %v, want %v", got, lsns)
	}
	return lg
}

// TestReopenMidSectorKeepsPrefix: a log reopened with its end in the middle
// of a sector must rebuild the durable prefix of that sector, or the next
// force would overwrite the earlier records in it.
func TestReopenMidSectorKeepsPrefix(t *testing.T) {
	const sectors = 64
	lg, d, _ := testLog(t, sectors)
	lsns := appendBodies(t, lg, 1, 30, 40)
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	// Leave garbage past the end, as a torn write of a lost batch would.
	snap := d.Snapshot()
	addr, inSec := lg.sectorFor(lg.NextLSN())
	for i := inSec; i < disk.SectorSize; i++ {
		snap[addr].Data[i] = 0xA5
	}
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	lg = checkRecords(t, d, sectors, lsns)
	if lg.NextLSN()%disk.SectorSize == 0 {
		t.Fatalf("log end %d is sector-aligned; the test needs it mid-sector", lg.NextLSN())
	}
	lsns = append(lsns, appendBodies(t, lg, 3, 50)...)
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	zeroPastEnd(t, lg, d)
	lg = checkRecords(t, d, sectors, lsns)
	// Once more, with the new batch spilling into the next sector.
	lsns = append(lsns, appendBodies(t, lg, 4, 600)...)
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, d, sectors, lsns)
}

// TestFailedAndTornForceKeepTail: a force that fails outright, and one torn
// in the first sector it writes, leave the durable prefix of that sector
// intact; the retry rewrites it and every record reads back after a reopen.
func TestFailedAndTornForceKeepTail(t *testing.T) {
	const sectors = 64
	lg, d, _ := testLog(t, sectors)
	// A durable prefix longer than the torn half of the sector.
	lsns := appendBodies(t, lg, 1, 150, 150)
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	firstSec, _ := lg.sectorFor(lg.DurableLSN())
	lsns = append(lsns, appendBodies(t, lg, 3, 20, 700)...)

	d.FailNextWrites(1)
	if err := lg.Force(lg.NextLSN()); err == nil {
		t.Fatal("force with a failed write returned nil")
	}
	torn := false
	d.SetFaultHook(func(write bool, addr disk.Addr) disk.FaultAction {
		if write && addr == firstSec && !torn {
			torn = true
			return disk.FaultTorn
		}
		return disk.FaultNone
	})
	if err := lg.Force(lg.NextLSN()); err == nil || !torn {
		t.Fatalf("torn force: err %v, torn %v", err, torn)
	}
	d.SetFaultHook(nil)
	checkRecords(t, d, sectors, lsns[:2])

	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatalf("retry after failed and torn forces: %v", err)
	}
	checkRecords(t, d, sectors, lsns)
}

func TestCheckpointAnchorPersists(t *testing.T) {
	lg, d, _ := testLog(t, 64)
	lsn, err := lg.AppendAndForce(&Record{Type: RecCheckpoint, Body: EncodeCheckpoint(&CheckpointBody{RedoLSN: firstLSN})})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.SetCheckpoint(lsn); err != nil {
		t.Fatal(err)
	}
	lg2, err := Open(Config{Disk: d, Base: 0, Sectors: 64})
	if err != nil {
		t.Fatal(err)
	}
	if lg2.CheckpointLSN() != lsn {
		t.Errorf("checkpoint LSN %d, want %d", lg2.CheckpointLSN(), lsn)
	}
}

func TestSetCheckpointRequiresDurable(t *testing.T) {
	lg, _, _ := testLog(t, 64)
	lsn, err := lg.Append(&Record{Type: RecCheckpoint, Body: EncodeCheckpoint(&CheckpointBody{RedoLSN: firstLSN})})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.SetCheckpoint(lsn); err == nil {
		t.Error("checkpoint anchor accepted before the record was forced")
	}
}

// TestFailedAppendLeavesRecordUntouched is the regression test for the
// stale-LSN bug: Append used to assign r.LSN before the encode and
// space checks, so a failed append left a bogus LSN on the caller's
// record — which a retry after reclamation would then chain from.
func TestFailedAppendLeavesRecordUntouched(t *testing.T) {
	lg, _, _ := testLog(t, 4)

	// Encode failure: oversized body.
	r := &Record{LSN: 42, TID: tid(1), Type: RecUpdate, Server: "s", Body: make([]byte, MaxBodySize+1)}
	if _, err := lg.Append(r); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if r.LSN != 42 {
		t.Errorf("encode failure mutated r.LSN: %d, want 42", r.LSN)
	}

	// Space failure: fill the tiny log until it rejects an append.
	body := make([]byte, 256)
	for i := 0; ; i++ {
		r := &Record{LSN: 7, TID: tid(uint64(i + 2)), Type: RecUpdate, Server: "s", Body: body}
		_, err := lg.Append(r)
		if err == nil {
			if r.LSN == 7 {
				t.Fatal("successful append did not assign an LSN")
			}
			continue
		}
		if !errors.Is(err, ErrLogFull) {
			t.Fatalf("want ErrLogFull, got %v", err)
		}
		if r.LSN != 7 {
			t.Errorf("full-log failure mutated r.LSN: %d, want 7", r.LSN)
		}
		break
	}
}

// TestConcurrentScanVsReclaim is the regression test for the scan TOCTOU:
// scans snapshot the LSN index under the mutex but read each record
// afterwards, so a concurrent Reclaim used to surface spurious
// ErrOutOfRange from records trimmed mid-scan. Reclaimed records must be
// skipped instead.
func TestConcurrentScanVsReclaim(t *testing.T) {
	lg, _, _ := testLog(t, 256)

	var lsns []LSN
	for i := 0; i < 200; i++ {
		lsn, err := lg.Append(&Record{TID: tid(uint64(i + 1)), Type: RecUpdate, Server: "s", Body: []byte("payload")})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	scanErr := make(chan error, 1)
	go func() {
		defer close(done)
		for {
			select {
			case <-scanErr:
				return
			default:
			}
			if err := lg.ScanForward(firstLSN, func(*Record) (bool, error) { return true, nil }); err != nil {
				scanErr <- err
				return
			}
			if err := lg.ScanBackward(lg.NextLSN(), func(*Record) (bool, error) { return true, nil }); err != nil {
				scanErr <- err
				return
			}
			if lg.LowLSN() == lg.NextLSN() {
				return // everything reclaimed; nothing left to race with
			}
		}
	}()

	for _, lsn := range lsns[1:] {
		if err := lg.Reclaim(lsn); err != nil {
			t.Fatalf("reclaim to %d: %v", lsn, err)
		}
	}
	if err := lg.Reclaim(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	<-done
	select {
	case err := <-scanErr:
		t.Fatalf("scan failed against concurrent reclaim: %v", err)
	default:
	}
}

package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tabs/internal/disk"
	"tabs/internal/simclock"
	"tabs/internal/stats"
	"tabs/internal/trace"
)

// slowLog builds a log over a disk whose every access sleeps for a scaled
// fraction of its modelled latency, so forces take real wall time and
// concurrent committers pile up behind an in-flight batch the way they do
// behind a physical arm.
func slowLog(t *testing.T, sectors int64, perMillis time.Duration) (*Log, *disk.Disk, *stats.Recorder, *trace.Tracer) {
	t.Helper()
	d := disk.New(disk.DefaultGeometry(sectors + 16))
	if perMillis > 0 {
		d.SetIOHook(func(ms float64, _ bool) {
			time.Sleep(time.Duration(ms * float64(perMillis)))
		})
	}
	rec := stats.NewRecorder()
	tr := trace.New("t", 64)
	lg, err := Open(Config{Disk: d, Base: 0, Sectors: sectors, Rec: rec, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	return lg, d, rec, tr
}

// TestGroupCommitBatchesConcurrentCommitters drives K goroutines through
// AppendAndForce against a slow disk and checks that the committers
// amortized Stable Storage Writes: far fewer forces than commits, and a
// mean group size above one.
func TestGroupCommitBatchesConcurrentCommitters(t *testing.T) {
	const workers, perWorker = 8, 12
	lg, _, rec, tr := slowLog(t, 1024, 10*time.Microsecond)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := &Record{TID: tid(uint64(w*perWorker + i + 1)), Type: RecCommit}
				if _, err := lg.AppendAndForce(r); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if lg.DurableLSN() != lg.NextLSN() {
		t.Fatalf("durable %d != next %d after all commits acked", lg.DurableLSN(), lg.NextLSN())
	}
	commits := float64(workers * perWorker)
	writes := rec.Snapshot(stats.PreCommit)[simclock.StableWrite]
	if writes > commits/2 {
		t.Errorf("group commit did not batch: %g stable writes for %g commits", writes, commits)
	}
	m := tr.MetricsSnapshot()
	gs := m["wal.force.group_size"]
	if gs.Count == 0 || gs.Mean <= 1 {
		t.Errorf("group_size metric mean %.2f (count %d), want > 1", gs.Mean, gs.Count)
	}
}

// TestAppendDoesNotBlockBehindForce checks the append/force pipeline: with
// a flush deliberately held open on the disk, Append must still complete.
func TestAppendDoesNotBlockBehindForce(t *testing.T) {
	d := disk.New(disk.DefaultGeometry(1024 + 16))
	lg, err := Open(Config{Disk: d, Base: 0, Sectors: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Install the stall only after Open: Open itself writes the anchor.
	release := make(chan struct{})
	var once sync.Once
	gate := make(chan struct{})
	d.SetIOHook(func(ms float64, _ bool) {
		once.Do(func() {
			close(gate) // the force's first disk access has started
			<-release   // ... and now stalls
		})
	})
	if _, err := lg.Append(&Record{TID: tid(1), Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	forceDone := make(chan error, 1)
	go func() { forceDone <- lg.Force(lg.NextLSN()) }()
	<-gate // the force is now mid-write on the disk

	appendDone := make(chan error, 1)
	go func() {
		_, err := lg.Append(&Record{TID: tid(2), Type: RecCommit})
		appendDone <- err
	}()
	select {
	case err := <-appendDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Append blocked behind an in-flight force")
	}
	close(release)
	if err := <-forceDone; err != nil {
		t.Fatal(err)
	}
	// The second record landed in the next batch.
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if lg.DurableLSN() != lg.NextLSN() {
		t.Fatalf("durable %d != next %d", lg.DurableLSN(), lg.NextLSN())
	}
}

// TestConcurrentCommitRacingReclaim races N committing goroutines against
// a reclaimer trimming the log at acked record boundaries and a backward
// scanner; every surviving record must stay readable and the log
// prefix-consistent, and a reopen must find the same records. Record sizes
// vary so most forces start mid-sector, from the cached durable tail.
func TestConcurrentCommitRacingReclaim(t *testing.T) {
	const workers, perWorker = 6, 25
	lg, d, _, _ := slowLog(t, 64, 0) // tiny log: reclamation matters

	acked := make(chan LSN, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := make([]byte, 300+7*w) // bulk so the 64-sector log needs reclaiming
			for i := 0; i < perWorker; i++ {
				r := &Record{TID: tid(uint64(w*perWorker + i + 1)), Type: RecCommit, Body: body}
				lsn, err := lg.AppendAndForce(r)
				if errors.Is(err, ErrLogFull) {
					i-- // reclaimer will free space; retry
					runtime.Gosched()
					continue
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				acked <- lsn
			}
		}(w)
	}
	scanStop, scanDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scanDone)
		for {
			select {
			case <-scanStop:
				return
			default:
			}
			if err := lg.ScanBackward(lg.NextLSN(), func(*Record) (bool, error) { return true, nil }); err != nil {
				t.Errorf("backward scan during commits: %v", err)
				return
			}
		}
	}()
	reclaimDone := make(chan struct{})
	go func() {
		defer close(reclaimDone)
		for lsn := range acked {
			// Acked records are durable, and their start LSN is a record
			// boundary; reclaiming below the low-water mark is a no-op.
			if err := lg.Reclaim(lsn); err != nil {
				t.Errorf("reclaim to %d: %v", lsn, err)
				return
			}
			if err := lg.ScanForward(lg.LowLSN(), func(*Record) (bool, error) { return true, nil }); err != nil {
				t.Errorf("scan during reclaim races: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(acked)
	<-reclaimDone
	close(scanStop)
	<-scanDone

	// Everything still retained must decode in ascending LSN order, and
	// a reopen must find exactly the same records.
	scan := func(l *Log) []LSN {
		var lsns []LSN
		if err := l.ScanForward(l.LowLSN(), func(r *Record) (bool, error) {
			if n := len(lsns); n > 0 && r.LSN <= lsns[n-1] {
				t.Errorf("scan order broken: %d after %d", r.LSN, lsns[n-1])
			}
			lsns = append(lsns, r.LSN)
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		return lsns
	}
	want := scan(lg)
	lg2, err := Open(Config{Disk: d, Base: 0, Sectors: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := scan(lg2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("reopened log holds %v, want %v", got, want)
	}
}

// TestCrashMidForceRecoversPrefix snapshots the disk at arbitrary moments
// while concurrent committers (and injected write failures) are in flight —
// the moral equivalent of pulling the plug mid-force — then reopens the log
// from each snapshot and requires (a) a cleanly decodable record prefix and
// (b) every commit acked before the snapshot to be present in it.
func TestCrashMidForceRecoversPrefix(t *testing.T) {
	const workers, perWorker, snapshots = 4, 30, 8
	lg, d, _, _ := slowLog(t, 2048, 2*time.Microsecond)

	var mu sync.Mutex
	ackedSet := make(map[LSN]bool)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := &Record{TID: tid(uint64(w*perWorker + i + 1)), Type: RecCommit}
				lsn, err := lg.AppendAndForce(r)
				if err != nil {
					// An injected failure; the record is not acked.
					continue
				}
				mu.Lock()
				ackedSet[lsn] = true
				mu.Unlock()
			}
		}(w)
	}
	// Fault injector: bursts of failed writes while commits are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d.FailNextWrites(2)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	checkSnapshot := func(n int) {
		// Copy the acked set FIRST: anything acked before the copy was
		// durable before the disk snapshot below, so it must survive.
		mu.Lock()
		acked := make([]LSN, 0, len(ackedSet))
		for lsn := range ackedSet {
			acked = append(acked, lsn)
		}
		mu.Unlock()
		snap := d.Snapshot()

		d2 := disk.New(disk.DefaultGeometry(2048 + 16))
		if err := d2.Restore(snap); err != nil {
			t.Fatal(err)
		}
		lg2, err := Open(Config{Disk: d2, Base: 0, Sectors: 2048})
		if err != nil {
			t.Fatalf("snapshot %d: reopening crashed log: %v", n, err)
		}
		recovered := make(map[LSN]bool)
		var prev LSN
		if err := lg2.ScanForward(0, func(r *Record) (bool, error) {
			if r.LSN <= prev {
				t.Errorf("snapshot %d: non-monotonic recovery scan", n)
			}
			prev = r.LSN
			recovered[r.LSN] = true
			return true, nil
		}); err != nil {
			t.Fatalf("snapshot %d: scanning recovered log: %v", n, err)
		}
		for _, lsn := range acked {
			if !recovered[lsn] {
				t.Errorf("snapshot %d: acked commit at LSN %d lost by crash recovery", n, lsn)
			}
		}
	}
	for i := 0; i < snapshots; i++ {
		time.Sleep(300 * time.Microsecond)
		checkSnapshot(i)
	}
	close(stop)
	wg.Wait()
	checkSnapshot(snapshots)
}

// TestForceFailurePropagatesAndRetries: a failed group force must surface
// the write error to its leader, leave the log consistent, and succeed on
// retry.
func TestForceFailurePropagatesAndRetries(t *testing.T) {
	lg, d, rec, _ := slowLog(t, 64, 0)
	if _, err := lg.Append(&Record{TID: tid(1), Type: RecCommit}); err != nil {
		t.Fatal(err)
	}
	d.FailNextWrites(1)
	if err := lg.Force(lg.NextLSN()); err == nil {
		t.Fatal("force with injected write failure returned nil")
	}
	if lg.DurableLSN() != firstLSN {
		t.Errorf("durable LSN advanced past a failed write: %d", lg.DurableLSN())
	}
	if got := rec.Snapshot(stats.PreCommit)[simclock.StableWrite]; got != 0 {
		t.Errorf("failed force charged a stable write: %g", got)
	}
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if lg.DurableLSN() != lg.NextLSN() {
		t.Errorf("retry did not make the log durable")
	}
	r, err := lg.ReadRecord(firstLSN)
	if err != nil || r.TID.Seq != 1 {
		t.Fatalf("record unreadable after retry: %v %v", r, err)
	}
}

// BenchmarkGroupCommit measures commit throughput (AppendAndForce from
// parallel goroutines) against a disk whose latency model is scaled into
// real time. The CI smoke step runs this with -benchtime=1x to keep it
// from bit-rotting.
func BenchmarkGroupCommit(b *testing.B) {
	d := disk.New(disk.DefaultGeometry(1 << 16))
	d.SetIOHook(func(ms float64, _ bool) {
		time.Sleep(time.Duration(ms * float64(5*time.Microsecond)))
	})
	rec := stats.NewRecorder()
	lg, err := Open(Config{Disk: d, Base: 0, Sectors: 1 << 15, Rec: rec})
	if err != nil {
		b.Fatal(err)
	}
	var seq uint64
	var seqMu sync.Mutex
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			seqMu.Lock()
			seq++
			s := seq
			seqMu.Unlock()
			if _, err := lg.AppendAndForce(&Record{TID: tid(s), Type: RecCommit}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	writes := rec.Snapshot(stats.PreCommit)[simclock.StableWrite]
	if b.N > 0 {
		b.ReportMetric(writes/float64(b.N), "stablewrites/txn")
	}
}

package wal

import (
	"bytes"
	"testing"

	"tabs/internal/disk"
	"tabs/internal/stats"
	"tabs/internal/types"
)

// These tests pin down the allocation behavior of the append hot path. The
// original Encode built each record's payload in one buffer and then
// allocated a second buffer just to prepend the frame length; Append then
// copied the result into the log buffer — two allocations and an extra copy
// per record. AppendEncode builds the frame in place in a caller-owned
// buffer, and Append encodes straight into l.buf.

func sampleRecord() *Record {
	return &Record{
		LSN:     41,
		PrevLSN: 17,
		TID:     sampleTID(),
		Type:    RecUpdate,
		Server:  "array",
		Body:    []byte("0123456789abcdef0123456789abcdef"),
	}
}

// TestAppendEncodeOneBuffer is the regression test for the two-allocation
// framing bug: encoding into a buffer with sufficient capacity must not
// allocate at all, and must produce byte-identical output to Encode.
func TestAppendEncodeOneBuffer(t *testing.T) {
	r := sampleRecord()
	want, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}

	dst := make([]byte, 0, 4*len(want))
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = AppendEncode(dst[:0], r)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendEncode into a sized buffer: %.1f allocs/op, want 0", allocs)
	}
	if !bytes.Equal(dst, want) {
		t.Errorf("AppendEncode output differs from Encode:\n got %x\nwant %x", dst, want)
	}

	// The frame must also append cleanly after existing bytes.
	prefix := []byte("existing")
	out, err := AppendEncode(append([]byte(nil), prefix...), r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) {
		t.Error("AppendEncode clobbered existing bytes in dst")
	}
	got, n, err := Decode(out[len(prefix):], r.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out)-len(prefix) || got.TID != r.TID || !bytes.Equal(got.Body, r.Body) {
		t.Errorf("appended frame did not round-trip: %+v", got)
	}
}

// TestAppendEncodeErrorLeavesDst verifies the documented contract that a
// validation failure appends nothing.
func TestAppendEncodeErrorLeavesDst(t *testing.T) {
	dst := []byte("keep")
	out, err := AppendEncode(dst, &Record{TID: sampleTID(), Body: make([]byte, MaxBodySize+1)})
	if err == nil {
		t.Fatal("oversized body accepted")
	}
	if !bytes.Equal(out, []byte("keep")) {
		t.Errorf("dst modified on error: %q", out)
	}
}

// TestAppendAllocBudget gates the whole Append path: once the log buffer and
// record index have warmed up, a batch of appends plus a force must stay far
// below one allocation per record. The old path paid at least two per
// record, so the budget fails if per-append allocation is reintroduced.
func TestAppendAllocBudget(t *testing.T) {
	d := disk.New(disk.DefaultGeometry(1 << 14))
	lg, err := Open(Config{Disk: d, Base: 0, Sectors: 1 << 12, Rec: stats.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	body := EncodeUpdate(&UpdateBody{
		Object: types.ObjectID{Segment: 1, Offset: 0, Length: 32},
		Old:    make([]byte, 32),
		New:    make([]byte, 32),
	})
	run := func() {
		for i := 0; i < batch; i++ {
			if _, err := lg.Append(&Record{TID: sampleTID(), Type: RecUpdate, Server: "s", Body: body}); err != nil {
				t.Fatal(err)
			}
		}
		if err := lg.Force(lg.NextLSN()); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up buffer and index capacity
	allocs := testing.AllocsPerRun(20, run)
	perRecord := allocs / batch
	if perRecord > 0.5 {
		t.Errorf("append hot path: %.2f allocs/record (%.1f per %d-record batch), want < 0.5",
			perRecord, allocs, batch)
	}
}

func BenchmarkAppendForce(b *testing.B) {
	d := disk.New(disk.DefaultGeometry(1 << 16))
	lg, err := Open(Config{Disk: d, Base: 0, Sectors: 1 << 14, Rec: stats.NewRecorder()})
	if err != nil {
		b.Fatal(err)
	}
	body := EncodeUpdate(&UpdateBody{
		Object: types.ObjectID{Segment: 1, Offset: 0, Length: 64},
		Old:    make([]byte, 64),
		New:    make([]byte, 64),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lg.Append(&Record{TID: sampleTID(), Type: RecUpdate, Server: "s", Body: body}); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			if err := lg.Force(lg.NextLSN()); err != nil {
				b.Fatal(err)
			}
			// Recycle log space so b.N appends cannot exhaust the region.
			if err := lg.Reclaim(lg.DurableLSN()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestScanReusesOneRecord gates the read side: a restart scans the whole
// log tail two or three times, and a scan that allocated a frame, a Record
// and a body copy per record put enough garbage into a restart (about
// 20 MB for a 2000-transaction tail) for a collection to land inside it
// every other time. A scan decodes every record over the one before, so
// what it allocates does not grow with the number of records — and each
// record must still read back whole, names and body, although its
// neighbours differ in both.
func TestScanReusesOneRecord(t *testing.T) {
	d := disk.New(disk.DefaultGeometry(1 << 14))
	cfg := Config{Disk: d, Base: 0, Sectors: 1 << 12, Rec: stats.NewRecorder()}
	lg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const records = 512
	want := make([]*Record, records)
	for i := range want {
		want[i] = &Record{TID: sampleTID(), Type: RecUpdate, Server: "array", Body: bytes.Repeat([]byte{byte(i)}, 1+i%97)}
		if i%64 == 0 { // another writer, another server, no body
			want[i].TID.Node, want[i].Server, want[i].Body = "elsewhere", "queue", nil
		}
		if _, err := lg.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Force(lg.NextLSN()); err != nil {
		t.Fatal(err)
	}
	check := func(i int, r *Record) {
		if w := want[i]; r.LSN != w.LSN || r.TID != w.TID || r.Server != w.Server || !bytes.Equal(r.Body, w.Body) {
			t.Fatalf("record %d read back as %+v, want %+v", i, r, w)
		}
	}
	scans := func() {
		i := 0
		if err := lg.ScanForward(lg.LowLSN(), func(r *Record) (bool, error) { check(i, r); i++; return true, nil }); err != nil {
			t.Fatal(err)
		}
		if err := lg.ScanBackward(lg.NextLSN(), func(r *Record) (bool, error) { i--; check(i, r); return true, nil }); err != nil {
			t.Fatal(err)
		}
		if i != 0 {
			t.Fatalf("scans disagree on the record count by %d", i)
		}
	}
	// A name is allocated where it changes, which is at every 64th record
	// here; nothing else may scale with the count.
	if got := testing.AllocsPerRun(5, scans); got > records/4 {
		t.Errorf("two scans of %d records allocated %.0f times, want under %d", records, got, records/4)
	}
	// Mounting the log again finds its end by the same kind of scan.
	if got := testing.AllocsPerRun(5, func() {
		if _, err := Open(cfg); err != nil {
			t.Fatal(err)
		}
	}); got > records/4 {
		t.Errorf("Open over %d records allocated %.0f times, want under %d", records, got, records/4)
	}
}

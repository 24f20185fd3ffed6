package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tabs/internal/disk"
	"tabs/internal/types"
)

// FuzzRecordRoundTrip hammers the record codec with arbitrary bytes. The
// invariants: no input may panic or trigger an allocation proportional to
// a claimed (unvalidated) count; any frame that decodes must re-encode to
// the identical bytes; and every typed body codec must round-trip exactly
// when it accepts an input. The codec is the one piece of this system
// that parses bytes straight off the (simulated) disk, where a torn write
// or a stale log area hands it arbitrary garbage.
func FuzzRecordRoundTrip(f *testing.F) {
	tid := types.TransID{Node: "n1", RootNode: "root", Seq: 7, RootSeq: 3}
	seeds := []*Record{
		{LSN: 1, Type: RecCommit, TID: tid},
		{LSN: 2, PrevLSN: 1, Type: RecAbort, TID: tid},
		{LSN: 3, PrevLSN: 1, Type: RecUpdate, TID: tid, Server: "array", Body: EncodeUpdate(&UpdateBody{
			Object: types.ObjectID{Segment: 4, Offset: 128, Length: 8},
			Old:    []byte{1, 2, 3, 4},
			New:    []byte{5, 6, 7, 8},
		})},
		{LSN: 4, Type: RecOperation, TID: tid, Server: "queue", Body: EncodeOperation(&OperationBody{
			Op:       "enqueue",
			RedoArgs: []byte("redo-args"),
			UndoArgs: []byte("undo-args"),
			Pages:    []PageSeq{{Page: types.PageID{Segment: 4, Page: 9}, Seq: 11}},
		})},
		{LSN: 5, Type: RecCheckpoint, Body: EncodeCheckpoint(&CheckpointBody{RedoLSN: 2})},
		{LSN: 6, Type: RecPrepare, TID: tid, Body: EncodePrepare(&PrepareBody{
			Parent:   "coord",
			Children: []types.NodeID{"p1", "p2"},
		})},
		{LSN: 8, Type: RecPrepare, TID: tid, Body: EncodePrepare(&PrepareBody{
			Parent:    "coord",
			Children:  []types.NodeID{"p1"},
			Acceptors: []types.NodeID{"a1", "a2", "a3"},
		})},
		{LSN: 9, Type: RecCheckpoint, Body: EncodeCheckpoint(&CheckpointBody{
			RedoLSN: 6,
			ACP:     []byte{0xde, 0xad, 0xbe, 0xef},
		})},
		{LSN: 7, Type: RecUpdateCLR, TID: tid, Body: EncodeCLR(&CLRBody{CompLSN: 3, Inner: []byte("inner")})},
	}
	for _, r := range seeds {
		enc, err := Encode(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		if len(r.Body) > 0 {
			f.Add(r.Body)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Typed body codecs see raw bytes directly: recovery trusts the
		// frame CRC but the bodies still must never misbehave on garbage.
		if u, err := DecodeUpdate(data); err == nil {
			if !bytes.Equal(EncodeUpdate(u), data) {
				t.Fatal("update body round-trip mismatch")
			}
		}
		if o, err := DecodeOperation(data); err == nil {
			if !bytes.Equal(EncodeOperation(o), data) {
				t.Fatal("operation body round-trip mismatch")
			}
		}
		if c, err := DecodeCheckpoint(data); err == nil {
			if !bytes.Equal(EncodeCheckpoint(c), data) {
				t.Fatal("checkpoint body round-trip mismatch")
			}
		}
		if p, err := DecodePrepare(data); err == nil {
			if !bytes.Equal(EncodePrepare(p), data) {
				t.Fatal("prepare body round-trip mismatch")
			}
		}
		if c, err := DecodeCLR(data); err == nil {
			if !bytes.Equal(EncodeCLR(c), data) {
				t.Fatal("CLR body round-trip mismatch")
			}
		}

		r, n, err := Decode(data, 0)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		enc, err := Encode(r)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("frame round-trip mismatch:\n got %x\nwant %x", enc, data[:n])
		}
	})
}

// FuzzForceReopen drives a small circular log through a seeded sequence of
// appends of random sizes, forces, forces that fail outright, forces torn
// in their first sector, reclamations and crash-reopens. Each byte is one
// step (an append takes the next byte as its body size). The invariants:
// no force reads the disk; a reopen finds every forced record, intact and
// in order, and beyond them at most a prefix of the records a failed
// force had tried to write — nothing else.
func FuzzForceReopen(f *testing.F) {
	f.Add([]byte{0, 10, 2, 5})
	f.Add([]byte{0, 10, 1, 200, 2, 5, 0, 3, 4, 2, 5})
	f.Add([]byte{0, 90, 2, 0, 90, 3, 5, 0, 7, 4, 2, 5})
	f.Add([]byte{0, 255, 2, 1, 255, 2, 6, 0, 255, 2, 6, 1, 180, 4, 5, 0, 30, 2, 5})
	f.Fuzz(func(t *testing.T, steps []byte) {
		const sectors = 8
		d := disk.New(disk.DefaultGeometry(sectors))
		lg, err := Open(Config{Disk: d, Base: 0, Sectors: sectors})
		if err != nil {
			t.Fatal(err)
		}
		type rec struct {
			lsn LSN
			seq uint64
			n   int
		}
		var (
			durable, pending []rec
			attempted        int // pending records a failed force may have written
			seq              uint64
			torn             bool
		)
		d.SetFaultHook(func(write bool, _ disk.Addr) disk.FaultAction {
			if write && torn {
				torn = false
				return disk.FaultTorn
			}
			return disk.FaultNone
		})
		force := func() error {
			reads, _ := d.Stats()
			err := lg.Force(lg.NextLSN())
			if after, _ := d.Stats(); after != reads {
				t.Fatalf("force read %d sectors", after-reads)
			}
			return err
		}
		for i := 0; i < len(steps); i++ {
			switch steps[i] % 7 {
			case 0, 1: // append
				n := 0
				if i+1 < len(steps) {
					i++
					n = 3 * int(steps[i])
				}
				seq++
				body := make([]byte, n)
				for j := range body {
					body[j] = byte(seq)
				}
				lsn, err := lg.Append(&Record{TID: types.TransID{Node: "n", Seq: seq}, Type: RecUpdate, Server: "s", Body: body})
				if errors.Is(err, ErrLogFull) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				pending = append(pending, rec{lsn, seq, n})
			case 2: // force
				if err := force(); err != nil {
					t.Fatal(err)
				}
				durable, pending, attempted = append(durable, pending...), nil, 0
			case 3, 4: // failed force, torn force
				if len(pending) == 0 {
					continue
				}
				if steps[i]%7 == 3 {
					d.FailNextWrites(1)
				} else {
					torn = true
				}
				if err := force(); err == nil {
					t.Fatal("faulted force returned nil")
				}
				torn = false
				attempted = len(pending)
			case 5: // crash and reopen
				if lg, err = Open(Config{Disk: d, Base: 0, Sectors: sectors}); err != nil {
					t.Fatal(err)
				}
				var got []rec
				if err := lg.ScanForward(0, func(r *Record) (bool, error) {
					for _, b := range r.Body {
						if b != byte(r.TID.Seq) {
							return false, fmt.Errorf("record %d at %d: body byte %d", r.TID.Seq, r.LSN, b)
						}
					}
					got = append(got, rec{r.LSN, r.TID.Seq, len(r.Body)})
					return true, nil
				}); err != nil {
					t.Fatal(err)
				}
				if len(got) < len(durable) || len(got) > len(durable)+attempted {
					t.Fatalf("reopen found %d records, want %d forced and at most %d more", len(got), len(durable), attempted)
				}
				want := append(durable, pending...)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("reopened record %d is %+v, want %+v", j, got[j], want[j])
					}
				}
				durable, pending, attempted = got, nil, 0
			case 6: // reclaim half the forced records
				if len(durable) == 0 {
					continue
				}
				keep := durable[len(durable)/2:]
				if err := lg.Reclaim(keep[0].lsn); err != nil {
					t.Fatal(err)
				}
				durable = keep
			}
		}
	})
}

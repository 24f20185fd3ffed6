package wal

import (
	"bytes"
	"testing"

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

package acp

import (
	"reflect"
	"testing"
)

// FuzzACPCodec hammers the acp codecs with arbitrary bytes. decodeMsg
// parses datagrams straight off the wire; takeBalCtrState and
// takeEntryState parse RecACP record bodies and the checkpoint blob
// straight off the disk. The invariants: no input may panic, and anything
// that decodes must re-encode to bytes that decode to the same value.
func FuzzACPCodec(f *testing.F) {
	tid := testTID("node-a", 42)
	e := &entry{
		promised: Ballot{N: 3, Node: "b"},
		accepted: true,
		abal:     Ballot{N: 2, Node: "a"},
		aval:     Value{Members: []Member{{Node: "a", Vote: VotePrepared}, {Node: "c", Vote: VoteAborted}}},
		decided:  true,
		dval:     Value{Members: []Member{{Node: "a", Vote: VotePrepared}}},
	}
	f.Add(encodeMsg(&dgram{op: opP1a, nonce: 3, bal: Ballot{N: 7, Node: "b"}}))
	f.Add(encodeMsg(&dgram{op: opP1b, flags: fAccepted, nonce: 3, bal: Ballot{N: 7, Node: "b"},
		abal: Ballot{N: 2, Node: "a"}, val: e.aval}))
	f.Add(appendEntryState(nil, tid, e))
	f.Add(appendEntryState(appendBalCtrState(nil, 9), testTID("node-b", 7), &entry{promised: Ballot{N: 1, Node: "c"}}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := decodeMsg(data); err == nil {
			again, err := decodeMsg(encodeMsg(d))
			if err != nil || !reflect.DeepEqual(again, d) {
				t.Fatalf("message round trip: %+v -> %+v, %v", d, again, err)
			}
		}
		// Walk data as a checkpoint blob, the way RestoreState does; a
		// RecACP body is the one-item case.
		for b := data; len(b) > 0; {
			if n, rest, ok := takeBalCtrState(b); ok {
				if again, _, ok := takeBalCtrState(appendBalCtrState(nil, n)); !ok || again != n {
					t.Fatalf("ballot counter round trip: %d -> %d, %v", n, again, ok)
				}
				b = rest
				continue
			}
			tid, e, rest, err := takeEntryState(b)
			if err != nil {
				return
			}
			tid2, e2, rest2, err := takeEntryState(appendEntryState(nil, tid, e))
			if err != nil || tid2 != tid || !reflect.DeepEqual(e2, e) || len(rest2) != 0 {
				t.Fatalf("entry round trip: %v %+v -> %v %+v, %d bytes left, %v", tid, e, tid2, e2, len(rest2), err)
			}
			b = rest
		}
	})
}

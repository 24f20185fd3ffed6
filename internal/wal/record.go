// Package wal implements the common write-ahead log shared by every data
// server and system component on a TABS node (paper §2.1.3, §3.2.2).
//
// The log is an append-only sequence of records in stable storage. Records
// carry undo and redo components; value-logging records hold old and new
// byte values of at most one page, operation-logging records hold the names
// and arguments of operations to re-invoke. Transaction management records
// (commit, abort, prepare) and checkpoint records share the same log, which
// the paper calls out as a deliberate design choice ("a common log",
// §2.1.4, §7).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"tabs/internal/types"
)

// LSN is a log sequence number: a monotonically increasing byte offset into
// the conceptually infinite log stream. The physical log is a circular
// region of the disk; reclamation (§3.2.2) advances the low-water mark.
type LSN uint64

// NilLSN marks the absence of a predecessor record.
const NilLSN LSN = 0

// RecordType discriminates log record bodies.
type RecordType uint8

// Log record types. Update and Operation are written by data servers via
// the server library; the rest by the Recovery and Transaction Managers.
const (
	RecInvalid      RecordType = iota
	RecUpdate                  // value logging: old/new value of ≤ one page (§2.1.3)
	RecOperation               // operation logging: redo/undo operation descriptors
	RecCommit                  // transaction (or top-level tree) committed
	RecAbort                   // transaction aborted
	RecPrepare                 // participant prepared in 2PC, effects must persist
	RecCheckpoint              // periodic checkpoint: redo LSN + acceptor state
	RecUpdateCLR               // compensation for an undone value record
	RecOperationCLR            // compensation for an undone operation record
	RecACP                     // acp acceptor state (promise/accept/decide), body owned by internal/acp
)

// String returns the record type name.
func (t RecordType) String() string {
	switch t {
	case RecUpdate:
		return "update"
	case RecOperation:
		return "operation"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecPrepare:
		return "prepare"
	case RecCheckpoint:
		return "checkpoint"
	case RecUpdateCLR:
		return "update-clr"
	case RecOperationCLR:
		return "operation-clr"
	case RecACP:
		return "acp"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one log record. Records written by the same transaction are
// chained backward through PrevLSN so abort processing can follow the chain
// without scanning (§3.2.2).
type Record struct {
	LSN     LSN            // assigned at append
	PrevLSN LSN            // previous record of the same transaction, or NilLSN
	TID     types.TransID  // owning transaction (zero for checkpoints)
	Type    RecordType     // body discriminator
	Server  types.ServerID // data server that wrote it (update/operation records)
	Body    []byte         // type-specific encoded payload
}

// Codec errors.
var (
	ErrCorrupt  = errors.New("wal: corrupt record")
	ErrTooLarge = errors.New("wal: record exceeds maximum size")
)

// MaxBodySize bounds a record body. A value record holds at most one page
// of old and one page of new value plus headers, comfortably under 2 pages.
const MaxBodySize = 4 * types.PageSize

const headerSize = 8 + 8 + 8 + 8 + 1 + 3*2 + 4 + 4 // lsn, prev, seq, rootSeq, type, 3 name lens, body len, crc

// encodedSize returns the on-log size of r.
func encodedSize(r *Record) int {
	return headerSize + len(r.TID.Node) + len(r.TID.RootNode) + len(r.Server) + len(r.Body)
}

// appendString writes a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// AppendEncode serializes r as one length-prefixed frame appended to dst
// and returns the extended slice. The frame is a 4-byte big-endian total
// length, the record fields, and a CRC32 over everything between the length
// prefix and the checksum itself, so crash recovery can find the end of the
// log by scanning until a bad checksum. The length prefix is reserved up
// front and patched once the payload size is known: the whole frame is
// built in the caller's buffer with no intermediate allocation. (The
// original Encode built the payload in one buffer, then allocated a second
// just to prepend the frame length — two allocations per record on the
// append hot path.)
//
// On a validation error dst is returned unchanged; nothing is appended.
func AppendEncode(dst []byte, r *Record) ([]byte, error) {
	if len(r.Body) > MaxBodySize {
		return dst, fmt.Errorf("%w: body %d bytes", ErrTooLarge, len(r.Body))
	}
	if len(r.TID.Node) > 255 || len(r.TID.RootNode) > 255 || len(r.Server) > 255 {
		return dst, fmt.Errorf("%w: name too long", ErrTooLarge)
	}
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // frame length, patched below
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.LSN))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.PrevLSN))
	dst = binary.BigEndian.AppendUint64(dst, r.TID.Seq)
	dst = binary.BigEndian.AppendUint64(dst, r.TID.RootSeq)
	dst = append(dst, byte(r.Type))
	dst = appendString(dst, string(r.TID.Node))
	dst = appendString(dst, string(r.TID.RootNode))
	dst = appendString(dst, string(r.Server))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Body)))
	dst = append(dst, r.Body...)
	crc := crc32.ChecksumIEEE(dst[base+4:])
	dst = binary.BigEndian.AppendUint32(dst, crc)
	binary.BigEndian.PutUint32(dst[base:], uint32(len(dst)-base-4))
	return dst, nil
}

// Encode serializes r into a freshly allocated framed buffer. Hot paths
// that own a reusable buffer should call AppendEncode instead.
func Encode(r *Record) ([]byte, error) {
	buf, err := AppendEncode(make([]byte, 0, 4+encodedSize(r)), r)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Decode parses one framed record from b, returning the record and the
// number of bytes consumed. It validates the checksum and, if expectLSN is
// nonzero, that the embedded LSN matches — which rejects stale data left
// from a previous cycle of the circular log. The record shares nothing
// with b.
func Decode(b []byte, expectLSN LSN) (*Record, int, error) {
	r := &Record{}
	n, err := decodeInto(r, b, expectLSN)
	if err != nil {
		return nil, 0, err
	}
	r.Body = append([]byte(nil), r.Body...)
	return r, n, nil
}

// decodeInto is Decode over a record the caller supplies, copying nothing:
// r.Body points into b, and a name r already holds is kept rather than
// allocated again, so a scan that decodes every record into the same
// Record allocates only when a name changes. On error r is left half
// overwritten.
func decodeInto(r *Record, b []byte, expectLSN LSN) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("%w: short frame", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint32(b))
	if n < headerSize || n > MaxBodySize+headerSize+512 || len(b) < 4+n {
		return 0, fmt.Errorf("%w: bad frame length %d", ErrCorrupt, n)
	}
	payload := b[4 : 4+n]
	body, crcBytes := payload[:n-4], payload[n-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
		return 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r.LSN = LSN(binary.BigEndian.Uint64(body[0:8]))
	r.PrevLSN = LSN(binary.BigEndian.Uint64(body[8:16]))
	r.TID.Seq = binary.BigEndian.Uint64(body[16:24])
	r.TID.RootSeq = binary.BigEndian.Uint64(body[24:32])
	r.Type = RecordType(body[32])
	rest, err := takeName(&r.TID.Node, body[33:])
	if err != nil {
		return 0, err
	}
	if rest, err = takeName(&r.TID.RootNode, rest); err != nil {
		return 0, err
	}
	if rest, err = takeName(&r.Server, rest); err != nil {
		return 0, err
	}
	if len(rest) < 4 {
		return 0, fmt.Errorf("%w: truncated body length", ErrCorrupt)
	}
	bl := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if bl > MaxBodySize {
		return 0, fmt.Errorf("%w: body %d bytes", ErrCorrupt, bl)
	}
	if len(rest) != bl {
		return 0, fmt.Errorf("%w: body length %d, have %d", ErrCorrupt, bl, len(rest))
	}
	r.Body = nil
	if bl > 0 {
		r.Body = rest
	}
	if expectLSN != 0 && r.LSN != expectLSN {
		return 0, fmt.Errorf("%w: LSN %d where %d expected (stale log area)", ErrCorrupt, r.LSN, expectLSN)
	}
	return 4 + n, nil
}

// takeName reads a length-prefixed name of at most 255 bytes — Encode's
// limit, so every record that decodes also re-encodes — into *dst, leaving
// the string already there in place when it spells the same name.
func takeName[S ~string](dst *S, b []byte) ([]byte, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: truncated string", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, fmt.Errorf("%w: truncated string body", ErrCorrupt)
	}
	if n > 255 {
		return nil, fmt.Errorf("%w: name too long", ErrCorrupt)
	}
	if string(*dst) != string(b[:n]) {
		*dst = S(b[:n])
	}
	return b[n:], nil
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("%w: truncated string", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("%w: truncated string body", ErrCorrupt)
	}
	return string(b[:n]), b[n:], nil
}

// --- Typed record bodies -------------------------------------------------

// UpdateBody is the body of a value-logging record: the old and new values
// of one object, at most a page each (§2.1.3). During recovery the single
// backward pass resets uncommitted objects to their old values; redo of
// committed transactions reapplies new values.
type UpdateBody struct {
	Object types.ObjectID
	Old    []byte
	New    []byte
}

// EncodeUpdate serializes an update body.
func EncodeUpdate(u *UpdateBody) []byte {
	b := make([]byte, 0, 16+len(u.Old)+len(u.New)+8)
	b = binary.BigEndian.AppendUint32(b, uint32(u.Object.Segment))
	b = binary.BigEndian.AppendUint32(b, u.Object.Offset)
	b = binary.BigEndian.AppendUint32(b, u.Object.Length)
	b = binary.BigEndian.AppendUint32(b, uint32(len(u.Old)))
	b = append(b, u.Old...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(u.New)))
	b = append(b, u.New...)
	return b
}

// DecodeUpdate parses an update body.
func DecodeUpdate(b []byte) (*UpdateBody, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("%w: short update body", ErrCorrupt)
	}
	u := &UpdateBody{}
	u.Object.Segment = types.SegmentID(binary.BigEndian.Uint32(b[0:4]))
	u.Object.Offset = binary.BigEndian.Uint32(b[4:8])
	u.Object.Length = binary.BigEndian.Uint32(b[8:12])
	oldLen := int(binary.BigEndian.Uint32(b[12:16]))
	rest := b[16:]
	if len(rest) < oldLen+4 {
		return nil, fmt.Errorf("%w: truncated old value", ErrCorrupt)
	}
	u.Old = append([]byte(nil), rest[:oldLen]...)
	rest = rest[oldLen:]
	newLen := int(binary.BigEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) != newLen {
		return nil, fmt.Errorf("%w: truncated new value", ErrCorrupt)
	}
	u.New = append([]byte(nil), rest...)
	return u, nil
}

// OperationBody is the body of an operation-logging record (§2.1.3): the
// operation name with arguments sufficient to redo or undo it, plus the
// pages the operation touched and the sequence number each page will carry
// once this operation's effect reaches non-volatile storage. Recovery
// compares logged sequence numbers with the numbers in the on-disk sector
// headers to decide whether a redo is required (§3.2.1).
type OperationBody struct {
	Op       string
	RedoArgs []byte
	UndoArgs []byte
	Pages    []PageSeq
}

// PageSeq pairs a page with the sequence number recorded for it.
type PageSeq struct {
	Page types.PageID
	Seq  uint64
}

// EncodeOperation serializes an operation body.
func EncodeOperation(o *OperationBody) []byte {
	b := make([]byte, 0, 32+len(o.Op)+len(o.RedoArgs)+len(o.UndoArgs)+16*len(o.Pages))
	b = appendString(b, o.Op)
	b = binary.BigEndian.AppendUint32(b, uint32(len(o.RedoArgs)))
	b = append(b, o.RedoArgs...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(o.UndoArgs)))
	b = append(b, o.UndoArgs...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(o.Pages)))
	for _, p := range o.Pages {
		b = binary.BigEndian.AppendUint32(b, uint32(p.Page.Segment))
		b = binary.BigEndian.AppendUint32(b, p.Page.Page)
		b = binary.BigEndian.AppendUint64(b, p.Seq)
	}
	return b
}

// DecodeOperation parses an operation body.
func DecodeOperation(b []byte) (*OperationBody, error) {
	o := &OperationBody{}
	var err error
	o.Op, b, err = takeString(b)
	if err != nil {
		return nil, err
	}
	take := func() ([]byte, error) {
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: truncated operation args", ErrCorrupt)
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if len(b) < n {
			return nil, fmt.Errorf("%w: truncated operation args", ErrCorrupt)
		}
		out := append([]byte(nil), b[:n]...)
		b = b[n:]
		return out, nil
	}
	if o.RedoArgs, err = take(); err != nil {
		return nil, err
	}
	if o.UndoArgs, err = take(); err != nil {
		return nil, err
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: truncated page list", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) != 16*n {
		return nil, fmt.Errorf("%w: page list length", ErrCorrupt)
	}
	o.Pages = make([]PageSeq, n)
	for i := 0; i < n; i++ {
		o.Pages[i].Page.Segment = types.SegmentID(binary.BigEndian.Uint32(b[0:4]))
		o.Pages[i].Page.Page = binary.BigEndian.Uint32(b[4:8])
		o.Pages[i].Seq = binary.BigEndian.Uint64(b[8:16])
		b = b[16:]
	}
	return o, nil
}

// CheckpointBody is the body of a checkpoint record (§2.1.3, §3.2.2). It
// holds one position and one blob, never a per-page or per-transaction
// table, so no amount of load can make it outgrow a record.
type CheckpointBody struct {
	// RedoLSN is where restart's scan begins: no later than any dirty
	// page's earliest unapplied record and any live transaction's first
	// record when the checkpoint was taken. Restart rebuilds the
	// transaction table from the log from here on.
	RedoLSN LSN
	// ACP is an opaque snapshot of commit-protocol acceptor state (encoded
	// and decoded by internal/acp). Including it here lets a checkpoint
	// truncate RecACP records the same way it truncates update records:
	// restart seeds acceptor state from the checkpoint, then replays any
	// later RecACP records over it.
	ACP []byte
}

// checkpointFormat leads every checkpoint body. It is never 0, the first
// byte of every checkpoint in the earlier table-carrying layout (a u32
// dirty-page count), so a log written in that layout is rejected rather
// than misread.
const checkpointFormat byte = 2

// checkpointHeader is the encoded size of a checkpoint body without its
// ACP blob, and MaxCheckpointACP the largest blob that fits beside it.
const (
	checkpointHeader = 1 + 8
	MaxCheckpointACP = MaxBodySize - checkpointHeader
)

// EncodeCheckpoint serializes a checkpoint body: format byte, redo LSN,
// then the ACP blob to the end of the body.
func EncodeCheckpoint(c *CheckpointBody) []byte {
	b := make([]byte, 0, checkpointHeader+len(c.ACP))
	b = append(b, checkpointFormat)
	b = binary.BigEndian.AppendUint64(b, uint64(c.RedoLSN))
	return append(b, c.ACP...)
}

// DecodeCheckpoint parses a checkpoint body.
func DecodeCheckpoint(b []byte) (*CheckpointBody, error) {
	if len(b) < checkpointHeader || b[0] != checkpointFormat {
		return nil, fmt.Errorf("%w: not a checkpoint body", ErrCorrupt)
	}
	c := &CheckpointBody{RedoLSN: LSN(binary.BigEndian.Uint64(b[1:9]))}
	if c.RedoLSN == NilLSN {
		return nil, fmt.Errorf("%w: checkpoint without a redo LSN", ErrCorrupt)
	}
	if len(b) > checkpointHeader {
		c.ACP = append([]byte(nil), b[checkpointHeader:]...)
	}
	return c, nil
}

// CLRBody wraps a compensation log record: the LSN of the record whose
// undo it records, plus the inner body (an UpdateBody with old/new swapped,
// or an OperationBody whose redo arguments are the original's undo
// arguments). CLRs let crash recovery "repeat history" — the redo pass
// replays them like ordinary records, and the undo pass skips both the CLR
// and the record it compensates, so no effect is ever undone twice.
type CLRBody struct {
	CompLSN LSN
	Inner   []byte
}

// EncodeCLR serializes a compensation wrapper.
func EncodeCLR(c *CLRBody) []byte {
	b := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(c.Inner)), uint64(c.CompLSN))
	return append(b, c.Inner...)
}

// DecodeCLR parses a compensation wrapper.
func DecodeCLR(b []byte) (*CLRBody, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: short CLR", ErrCorrupt)
	}
	return &CLRBody{
		CompLSN: LSN(binary.BigEndian.Uint64(b[:8])),
		Inner:   append([]byte(nil), b[8:]...),
	}, nil
}

// PrepareBody is the body of a 2PC prepare record: enough information for
// restart to resolve an in-doubt transaction — the parent (coordinator)
// node to ask, and the children this node coordinates in the spanning tree
// (§3.2.3).
type PrepareBody struct {
	Parent   types.NodeID
	Children []types.NodeID
	// Acceptors is the commit-protocol replica set for this transaction.
	// Empty under plain 2PC (resolution = ask the parent); non-empty under
	// Paxos Commit, where restart resolves in-doubt transactions against a
	// quorum of these nodes instead of waiting for the coordinator.
	Acceptors []types.NodeID
}

// EncodePrepare serializes a prepare body.
func EncodePrepare(p *PrepareBody) []byte {
	b := appendString(nil, string(p.Parent))
	b = binary.BigEndian.AppendUint16(b, uint16(len(p.Children)))
	for _, c := range p.Children {
		b = appendString(b, string(c))
	}
	// The acceptor tail is appended only when non-empty, so plain-2PC
	// prepare records are byte-identical to the pre-acp format and old logs
	// (which have no tail at all) still decode.
	if len(p.Acceptors) > 0 {
		b = binary.BigEndian.AppendUint16(b, uint16(len(p.Acceptors)))
		for _, a := range p.Acceptors {
			b = appendString(b, string(a))
		}
	}
	return b
}

// DecodePrepare parses a prepare body.
func DecodePrepare(b []byte) (*PrepareBody, error) {
	p := &PrepareBody{}
	parent, b, err := takeString(b)
	if err != nil {
		return nil, err
	}
	p.Parent = types.NodeID(parent)
	takeNames := func(what string) ([]types.NodeID, error) {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: prepare %s", ErrCorrupt, what)
		}
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		out := make([]types.NodeID, 0, n)
		for i := 0; i < n; i++ {
			var c string
			c, b, err = takeString(b)
			if err != nil {
				return nil, err
			}
			out = append(out, types.NodeID(c))
		}
		return out, nil
	}
	if p.Children, err = takeNames("children"); err != nil {
		return nil, err
	}
	// No trailing bytes: a prepare record written under plain 2PC (or by a
	// pre-acp version of this code) — no acceptor set.
	if len(b) == 0 {
		return p, nil
	}
	if p.Acceptors, err = takeNames("acceptors"); err != nil {
		return nil, err
	}
	if len(p.Acceptors) == 0 {
		// An empty set is encoded by omitting the tail entirely; a present
		// zero-count tail is not a canonical encoding.
		return nil, fmt.Errorf("%w: prepare empty acceptor tail", ErrCorrupt)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: prepare trailing bytes", ErrCorrupt)
	}
	return p, nil
}

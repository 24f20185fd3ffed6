package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tabs/internal/comm"
	"tabs/internal/core"
	"tabs/internal/disk"
	"tabs/internal/trace"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// The traced window records spans from the benchmark's own files, around
// its calls into each layer; spans inside the program are a later issue.

// keptSpans is how many transactions per worker keep their spans for the
// spans file; every traced transaction counts in the totals.
const keptSpans = 2000

// txnSpan is one transaction's timeline: a timestamp at the start, after
// BeginTransaction, after each operation call, and after EndTransaction.
// Neighbouring spans share a boundary, so a transaction of n operations
// costs n+3 clock reads.
type txnSpan struct {
	tid types.TransID
	t   [7]time.Time
	n   int
	set [4]bool // which operation calls were Sets
}

// The methods accept a nil receiver so the untraced path pays one
// predictable branch per boundary and nothing else.
func (s *txnSpan) begin() {
	if s != nil {
		s.n = 1
		s.t[0] = time.Now()
	}
}

func (s *txnSpan) mark(tid types.TransID) {
	if s != nil {
		s.tid = tid
		s.t[s.n] = time.Now()
		s.n++
	}
}

// spanTotals sums span durations by name over a traced window.
type spanTotals struct {
	txns                  int64
	txnNs                 int64
	beginNs, endNs        int64
	getNs, gets           int64
	setNs, sets           int64
	sends, sendNs, sendB  int64 // from the transport wrapper
	forces, waiterSamples int64 // from the WAL hook
	waiters               float64
}

func (t *spanTotals) note(s *txnSpan, p *plan) {
	t.txns++
	t.txnNs += int64(s.t[s.n-1].Sub(s.t[0]))
	t.beginNs += int64(s.t[1].Sub(s.t[0]))
	t.endNs += int64(s.t[s.n-1].Sub(s.t[s.n-2]))
	for i := 0; i < p.n; i++ {
		d := int64(s.t[i+2].Sub(s.t[i+1]))
		s.set[i] = p.ops[i].set
		if p.ops[i].set {
			t.setNs += d
			t.sets++
		} else {
			t.getNs += d
			t.gets++
		}
	}
}

func (t *spanTotals) add(o *spanTotals) {
	t.txns += o.txns
	t.txnNs += o.txnNs
	t.beginNs += o.beginNs
	t.endNs += o.endNs
	t.getNs += o.getNs
	t.gets += o.gets
	t.setNs += o.setNs
	t.sets += o.sets
}

// observer is the benchmark's own core.FaultPlan: a transport wrapper and
// a WAL hook that only observe and never inject a fault.
type observer struct {
	sends, sendNs, sendBytes atomic.Int64
	forces                   atomic.Int64

	mu      sync.Mutex
	tracers map[types.NodeID]*trace.Tracer
	waiters []float64  // wal.force.waiters sampled at every waiterEvery-th force
	kept    []sendSpan // the first keptSends sends, for the spans file
	request []byte     // the first remote data server call's payload, for the comm probe
}

const (
	keptSends = 20000
	// waiterEvery keeps the gauge sampling (a full metrics snapshot) off
	// the hot path: local_hot forces the log 70k times a second.
	waiterEvery = 32
)

type sendSpan struct {
	node       types.NodeID
	tid        types.TransID
	kind       comm.Kind
	start, end time.Time
}

func newObserver() *observer {
	return &observer{tracers: make(map[types.NodeID]*trace.Tracer)}
}

func (o *observer) WrapTransport(node types.NodeID, t comm.Transport) comm.Transport {
	return &observedTransport{Transport: t, node: node, o: o}
}

// DiskHook installs nothing: the device model's IO hook already sees every
// access with its direction of arm travel, and a second hook would only
// count the same accesses again.
func (o *observer) DiskHook(types.NodeID) disk.FaultHook { return nil }

func (o *observer) WALHook(node types.NodeID) wal.FaultHook {
	return func(point string) error {
		if point != "wal.force" {
			return nil
		}
		if o.forces.Add(1)%waiterEvery != 0 {
			return nil
		}
		o.mu.Lock()
		tr := o.tracers[node]
		o.mu.Unlock()
		if g, ok := tr.MetricsSnapshot()["wal.force.waiters"]; ok {
			o.mu.Lock()
			o.waiters = append(o.waiters, g.Value)
			o.mu.Unlock()
		}
		return nil
	}
}

func (o *observer) BindTracer(node types.NodeID, tr *trace.Tracer) {
	o.mu.Lock()
	o.tracers[node] = tr
	o.mu.Unlock()
}

// payload returns the captured remote call, nil when nothing was sent.
func (o *observer) payload() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.request
}

// reset drops what warm-up recorded.
func (o *observer) reset() {
	o.sends.Store(0)
	o.sendNs.Store(0)
	o.sendBytes.Store(0)
	o.forces.Store(0)
	o.mu.Lock()
	o.waiters, o.kept = nil, nil
	o.mu.Unlock()
}

// fill copies the observer's totals into a traced window's span totals.
func (o *observer) fill(t *spanTotals) {
	t.sends, t.sendNs, t.sendB = o.sends.Load(), o.sendNs.Load(), o.sendBytes.Load()
	t.forces = o.forces.Load()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, w := range o.waiters {
		t.waiters += w
	}
	t.waiterSamples = int64(len(o.waiters))
}

type observedTransport struct {
	comm.Transport
	node types.NodeID
	o    *observer
}

// Send times the wrapped Send and files it under the envelope's TID.
// MemNetwork hands the envelope over without framing it, so the bytes
// counted are the envelope's variable-length fields, not a wire frame.
func (t *observedTransport) Send(env *comm.Envelope) error {
	start := time.Now()
	err := t.Transport.Send(env)
	end := time.Now()
	o := t.o
	n := o.sends.Add(1)
	o.sendNs.Add(int64(end.Sub(start)))
	o.sendBytes.Add(int64(len(env.Payload) + len(env.Service) + len(env.Err) + len(env.From) + len(env.To)))
	if n <= keptSends {
		o.mu.Lock()
		o.kept = append(o.kept, sendSpan{node: t.node, tid: env.TID, kind: env.Kind, start: start, end: end})
		if o.request == nil && env.Kind == comm.KindSession && !env.IsReply && env.Service == core.DataServerService {
			o.request = append([]byte(nil), env.Payload...)
		}
		o.mu.Unlock()
	}
	return err
}

// spanRecord is one line of the spans file: name, start, end, the span
// that caused it, and the transaction all spans of one request share.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	Node    string `json:"node,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes the kept spans of a traced window to
// <dir>/<workload>.spans.json. A comm.send span's parent is the transaction
// span with its TID; self time is a span minus the children inside it.
func writeSpans(dir string, w *workload, win *window, obs *observer, epoch time.Time) (string, error) {
	var recs []spanRecord
	byTID := make(map[types.TransID]int)
	id := 0
	emit := func(parent int, trace, name, node string, start, end time.Time) int {
		id++
		recs = append(recs, spanRecord{ID: id, Parent: parent, Trace: trace, Name: name, Node: node,
			StartNs: int64(start.Sub(epoch)), EndNs: int64(end.Sub(epoch))})
		return id
	}
	for i := range win.kept {
		s := &win.kept[i]
		tr := s.tid.String()
		root := emit(0, tr, "txn", string(homeNode), s.t[0], s.t[s.n-1])
		byTID[s.tid] = root
		emit(root, tr, "applib.begin", string(homeNode), s.t[0], s.t[1])
		for k := 2; k < s.n-1; k++ {
			name := "intarray.get"
			if s.set[k-2] {
				name = "intarray.set"
			}
			emit(root, tr, name, string(homeNode), s.t[k-1], s.t[k])
		}
		emit(root, tr, "applib.end", string(homeNode), s.t[s.n-2], s.t[s.n-1])
	}
	obs.mu.Lock()
	for _, s := range obs.kept {
		emit(byTID[s.tid.TopLevel()], s.tid.String(), "comm.send."+s.kind.String(), string(s.node), s.start, s.end)
	}
	obs.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, w.name+".spans.json")
	data, err := json.Marshal(recs)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

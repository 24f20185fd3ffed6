package main

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"tabs/internal/comm"
	"tabs/internal/core"
	"tabs/internal/disk"
	"tabs/internal/kernel"
	"tabs/internal/lock"
	"tabs/internal/nameserver"
	"tabs/internal/recovery"
	"tabs/internal/servers/intarray"
	"tabs/internal/srvlib"
	"tabs/internal/txn"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// The layer probes price one call of each layer's public entry point on a
// standalone instance built from the layer's public constructor, with no
// device time. They are Table 5-1 at today's speeds. comm's envelope codec
// is not priced: it is unexported, and MemNetwork never runs it.

const (
	probeWarm   = 2000                   // each repeat's own warm-up calls
	probeBudget = 200 * time.Millisecond // a repeat ends here if its calls have not
)

// probeInputs are taken from the workload being measured, not invented:
// the cell a Set writes, and a remote call's payload.
type probeInputs struct {
	object  types.ObjectID // one array cell of the workload
	server  types.ServerID
	payload []byte // a remote SetCell request as the workload's stub builds it
}

func inputsOf(w *workload, captured []byte) probeInputs {
	in := probeInputs{
		// Every workload's Set writes one 8-byte array cell.
		object:  types.ObjectID{Segment: 1, Length: intarray.CellSize},
		server:  w.servers(homeNode)[0],
		payload: captured,
	}
	if in.payload == nil {
		// A local workload sends nothing; build the request its stub would.
		in.payload = binary.BigEndian.AppendUint16(nil, uint16(len(in.server)))
		in.payload = append(in.payload, in.server...)
		in.payload = binary.BigEndian.AppendUint16(in.payload, uint16(len(intarray.OpSet)))
		in.payload = append(in.payload, intarray.OpSet...)
		in.payload = append(in.payload, make([]byte, 4+intarray.CellSize)...) // cell number, value
	}
	return in
}

// probe builds a fresh instance and returns the call to price and a
// function that releases the instance.
type probe struct {
	metric string
	build  func(in probeInputs) (call func(i int) error, release func(), err error)
}

// price is one probe's result in nanoseconds per call.
type price struct {
	Q1     float64 `json:"q1_ns"`
	Median float64 `json:"median_ns"`
	Q3     float64 `json:"q3_ns"`
	Calls  int     `json:"calls"`
}

func (p probe) run(in probeInputs, sz sizes) (price, error) {
	var res price
	perCall := make([]float64, 0, sz.probeRepeats)
	for r := 0; r < sz.probeRepeats; r++ {
		call, release, err := p.build(in)
		if err != nil {
			return res, fmt.Errorf("%s: %w", p.metric, err)
		}
		for i := 0; i < min(probeWarm, sz.probeCalls); i++ {
			if err := call(i); err != nil {
				release()
				return res, fmt.Errorf("%s warm-up: %w", p.metric, err)
			}
		}
		start := time.Now()
		n := 0
		for n < sz.probeCalls {
			if err := call(probeWarm + n); err != nil {
				release()
				return res, fmt.Errorf("%s: %w", p.metric, err)
			}
			n++
			if n%256 == 0 && time.Since(start) > probeBudget {
				break
			}
		}
		perCall = append(perCall, float64(time.Since(start))/float64(n))
		res.Calls += n
		release()
	}
	res.Q1, res.Median, res.Q3 = quartiles(perCall)
	return res, nil
}

// runProbes prices every layer and stores each median under its metric
// name, in the unit the name ends in.
func runProbes(m metricSet, in probeInputs, sz sizes) (map[string]price, error) {
	out := make(map[string]price, len(probes))
	for _, p := range probes {
		res, err := p.run(in, sz)
		if err != nil {
			return nil, err
		}
		out[p.metric] = res
		m[p.metric] = res.Median
		if strings.HasSuffix(p.metric, "_us") {
			m[p.metric] = res.Median / 1e3
		}
	}
	return out, nil
}

var probes = []probe{
	{"core.call_noop_ns", func(probeInputs) (func(int) error, func(), error) {
		n, _, err := noopNode()
		if err != nil {
			return nil, nil, err
		}
		return func(int) error {
			_, err := n.Call("noop", "Noop", types.NilTransID, nil)
			return err
		}, n.Crash, nil
	}},
	{"srvlib.invoke_noop_ns", func(probeInputs) (func(int) error, func(), error) {
		n, s, err := noopNode()
		if err != nil {
			return nil, nil, err
		}
		return func(int) error {
			_, err := s.Invoke("Noop", types.NilTransID, nil)
			return err
		}, n.Crash, nil
	}},
	{"lock.lock_release_ns", func(in probeInputs) (func(int) error, func(), error) {
		m := lock.New()
		return func(i int) error {
			tid := types.TransID{Node: "probe", Seq: uint64(i + 1), RootNode: "probe", RootSeq: uint64(i + 1)}
			if err := m.Lock(tid, in.object, lock.ModeWrite); err != nil {
				return err
			}
			m.ReleaseAll(tid)
			return nil
		}, m.Close, nil
	}},
	{"kernel.read_hit_ns", func(in probeInputs) (func(int) error, func(), error) {
		// 32 pages in a 64-page pool: resident after warm-up.
		return kernelReads(in, 64, 32)
	}},
	{"kernel.read_miss_us", func(in probeInputs) (func(int) error, func(), error) {
		// 256 pages visited in order through a 64-page LRU pool: every
		// read faults and evicts a clean page.
		return kernelReads(in, 64, 256)
	}},
	{"recovery.log_update_ns", func(in probeInputs) (func(int) error, func(), error) {
		lg, k, err := probeLog()
		if err != nil {
			return nil, nil, err
		}
		rm := recovery.New(recovery.Config{Log: lg, Kernel: k, CheckpointEvery: 1 << 30})
		tid := types.TransID{Node: "probe", Seq: 1, RootNode: "probe", RootSeq: 1}
		u := &wal.UpdateBody{Object: in.object, Old: make([]byte, in.object.Length), New: make([]byte, in.object.Length)}
		return func(int) error {
			_, err := rm.LogUpdate(tid, in.server, u)
			return err
		}, rm.Crash, nil
	}},
	{"wal.append_ns", func(in probeInputs) (func(int) error, func(), error) {
		lg, _, err := probeLog()
		if err != nil {
			return nil, nil, err
		}
		rec := updateRecord(in)
		return func(int) error {
			_, err := lg.Append(rec)
			return err
		}, func() {}, nil
	}},
	{"wal.append_force_us", func(in probeInputs) (func(int) error, func(), error) {
		lg, _, err := probeLog()
		if err != nil {
			return nil, nil, err
		}
		rec := updateRecord(in)
		return func(int) error {
			_, err := lg.AppendAndForce(rec)
			return err
		}, func() {}, nil
	}},
	{"txn.begin_end_ro_ns", func(probeInputs) (func(int) error, func(), error) {
		lg, k, err := probeLog()
		if err != nil {
			return nil, nil, err
		}
		rm := recovery.New(recovery.Config{Log: lg, Kernel: k, CheckpointEvery: 1 << 30})
		tm := txn.New("probe", rm, nil, nil)
		return func(int) error {
			tid, err := tm.Begin(types.NilTransID)
			if err != nil {
				return err
			}
			ok, err := tm.End(tid)
			if err == nil && !ok {
				err = fmt.Errorf("empty transaction %v aborted", tid)
			}
			return err
		}, tm.Crash, nil
	}},
	{"comm.call_rtt_us", func(in probeInputs) (func(int) error, func(), error) {
		net := comm.NewMemNetwork()
		a := comm.New("a", net.Endpoint("a"), nil)
		b := comm.New("b", net.Endpoint("b"), nil)
		b.RegisterService("echo", func(_ types.NodeID, _ types.TransID, payload []byte) ([]byte, error) {
			return payload, nil
		})
		return func(int) error {
				_, err := a.Call("b", "echo", types.NilTransID, in.payload)
				return err
			}, func() {
				_ = a.Close() // a probe instance going away; nothing to recover
				_ = b.Close()
			}, nil
	}},
	{"nameserver.lookup_cached_ns", func(in probeInputs) (func(int) error, func(), error) {
		ns := nameserver.New("probe", nil)
		name := string(in.server)
		ns.Register(name, "data-server", in.server, types.ObjectID{Segment: in.object.Segment})
		return func(int) error {
			_, err := ns.LookUp(name, 1, time.Second)
			return err
		}, func() {}, nil
	}},
}

// noopNode is a one-node TABS with a data server whose only operation
// does nothing: what is left is dispatch.
func noopNode() (*core.Node, *srvlib.Server, error) {
	n, err := core.NewNode(core.Config{ID: "probe", Disk: disk.New(disk.DefaultGeometry(1024)), LogSectors: 256, PoolPages: 16})
	if err != nil {
		return nil, nil, err
	}
	s, err := n.NewServer("noop", 1, 1, nil, lockTimeout)
	if err != nil {
		return nil, nil, err
	}
	s.AcceptRequests(func(*srvlib.Request) ([]byte, error) { return nil, nil })
	if _, err := n.Recover(); err != nil {
		return nil, nil, err
	}
	return n, s, nil
}

// kernelReads reads the workload's cell shape on each of pages pages in
// turn through a pool of pool pages.
func kernelReads(in probeInputs, pool, pages int) (func(int) error, func(), error) {
	k := kernel.New(kernel.Config{Disk: disk.New(disk.DefaultGeometry(int64(pages))), PoolPages: pool})
	if err := k.AddSegment(in.object.Segment, 0, uint32(pages)); err != nil {
		return nil, nil, err
	}
	obj := in.object
	inPage := obj.Offset % types.PageSize
	return func(i int) error {
		obj.Offset = uint32(i%pages)*types.PageSize + inPage
		_, err := k.Read(obj)
		return err
	}, k.Crash, nil
}

// probeLog is a log large enough for one repeat's records, with the
// kernel a Recovery Manager needs beside it.
func probeLog() (*wal.Log, *kernel.Kernel, error) {
	d := disk.New(disk.DefaultGeometry(16384))
	lg, err := wal.Open(wal.Config{Disk: d, Base: 0, Sectors: 16000})
	if err != nil {
		return nil, nil, err
	}
	return lg, kernel.New(kernel.Config{Disk: d, PoolPages: 16}), nil
}

// updateRecord is the value-logging record one SetCell of the workload
// spools: old and new value of one cell.
func updateRecord(in probeInputs) *wal.Record {
	u := &wal.UpdateBody{Object: in.object, Old: make([]byte, in.object.Length), New: make([]byte, in.object.Length)}
	return &wal.Record{
		TID:  types.TransID{Node: "probe", Seq: 1, RootNode: "probe", RootSeq: 1},
		Type: wal.RecUpdate, Server: in.server, Body: wal.EncodeUpdate(u),
	}
}

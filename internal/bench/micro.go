package bench

import (
	"fmt"
	"time"

	"tabs/internal/core"
	"tabs/internal/disk"
	"tabs/internal/simclock"
	"tabs/internal/srvlib"
	"tabs/internal/stats"
	"tabs/internal/types"
	"tabs/internal/wal"
	"tabs/internal/workload"
)

// MicroResults holds the Table 5-1 micro-benchmark outcomes.
type MicroResults struct {
	// SimDiskMs are the virtual latencies the simulated disk model
	// produces for the I/O primitives (they should track Table 5-1's 32 /
	// 16 ms figures, which DefaultGeometry was tuned to).
	SimDiskMs map[simclock.Primitive]float64
	// GoMicros are wall-clock microseconds per primitive for this Go
	// implementation, measured the way the paper measured its primitives:
	// repeatedly calling the appropriate function (§5.1).
	GoMicros map[simclock.Primitive]float64
}

// MeasureMicro runs the primitive micro-benchmarks.
func MeasureMicro() (*MicroResults, error) {
	out := &MicroResults{
		SimDiskMs: make(map[simclock.Primitive]float64),
		GoMicros:  make(map[simclock.Primitive]float64),
	}
	if err := measureDiskModel(out); err != nil {
		return nil, err
	}
	if err := measureStableWrite(out); err != nil {
		return nil, err
	}
	if err := measureMessaging(out); err != nil {
		return nil, err
	}
	return out, nil
}

// measureDiskModel times random and sequential sector reads against the
// latency model, exactly as the paper measured demand paging with a
// program reading individual pages of a large mapped array (§5.1).
func measureDiskModel(out *MicroResults) error {
	d := disk.New(disk.DefaultGeometry(8192))
	var totalMs float64
	d.SetIOHook(func(ms float64, _ bool) { totalMs += ms })
	buf := make([]byte, disk.SectorSize)

	// Random access: stride large and coprime with the track size.
	totalMs = 0
	const n = 2000
	for i := 0; i < n; i++ {
		addr := disk.Addr((i * 2713) % 8192)
		if _, err := d.Read(addr, buf); err != nil {
			return err
		}
	}
	out.SimDiskMs[simclock.RandomPageIO] = totalMs / n

	// Sequential access.
	totalMs = 0
	for i := 0; i < n; i++ {
		if _, err := d.Read(disk.Addr(i%8192), buf); err != nil {
			return err
		}
	}
	out.SimDiskMs[simclock.SequentialRead] = totalMs / n
	return nil
}

// measureStableWrite times a log force: append one record and force it,
// with the arm disturbed between forces as the shared data disk disturbs
// it in TABS (§5.1: log writing breaks up sequential access).
func measureStableWrite(out *MicroResults) error {
	d := disk.New(disk.DefaultGeometry(8192))
	var totalMs float64
	d.SetIOHook(func(ms float64, _ bool) { totalMs += ms })
	rec := stats.NewRecorder()
	lg, err := wal.Open(wal.Config{Disk: d, Base: 0, Sectors: 4096, Rec: rec})
	if err != nil {
		return err
	}
	buf := make([]byte, disk.SectorSize)
	const n = 500
	totalMs = 0
	var forceMs float64
	for i := 0; i < n; i++ {
		// Disturb the arm, as demand paging of data pages does.
		if _, err := d.Read(disk.Addr(5000+(i*37)%3000), buf); err != nil {
			return err
		}
		before := totalMs
		r := &wal.Record{TID: types.TransID{Node: "m", Seq: uint64(i + 1), RootNode: "m", RootSeq: uint64(i + 1)}, Type: wal.RecCommit}
		if _, err := lg.AppendAndForce(r); err != nil {
			return err
		}
		forceMs += totalMs - before
	}
	out.SimDiskMs[simclock.StableWrite] = forceMs / n
	return nil
}

// measureMessaging times this implementation's call primitives in
// wall-clock terms: a local null data server call, a remote null call
// through the Communication Managers over the in-memory network, and a
// datagram. The message primitives have no Go counterpart to time: the
// components they connected call each other directly.
func measureMessaging(out *MicroResults) error {
	// Null data server calls, local and remote.
	cluster, err := workload.Boot(workload.Options{
		Cluster: core.DefaultClusterOptions(),
		Nodes:   []types.NodeID{"m1", "m2"},
		Attach: func(n *core.Node) error {
			srv, err := n.NewServer("null", 1, 1, nil, time.Second)
			if err != nil {
				return err
			}
			srv.AcceptRequests(func(req *srvlib.Request) ([]byte, error) { return nil, nil })
			return nil
		},
	})
	if err != nil {
		return err
	}
	defer cluster.Shutdown()
	n1 := cluster.Node("m1")
	const calls = 5000
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := n1.Call("null", "noop", types.NilTransID, nil); err != nil {
			return err
		}
	}
	out.GoMicros[simclock.DataServerCall] = float64(time.Since(start).Microseconds()) / calls

	start = time.Now()
	for i := 0; i < calls; i++ {
		if _, err := n1.CallRemote("m2", "null", "noop", types.NilTransID, nil); err != nil {
			return err
		}
	}
	out.GoMicros[simclock.InterNodeCall] = float64(time.Since(start).Microseconds()) / calls

	// Datagram: one-way send through the Communication Manager.
	start = time.Now()
	for i := 0; i < calls; i++ {
		if err := n1.CM.SendDatagram("m2", "noexist", types.NilTransID, nil, 0); err != nil {
			return err
		}
	}
	out.GoMicros[simclock.Datagram] = float64(time.Since(start).Microseconds()) / calls
	return nil
}

// FormatWallSummary renders a short wall-clock summary of the Go
// implementation's micro primitives.
func FormatWallSummary(m *MicroResults) string {
	if m == nil {
		return ""
	}
	return fmt.Sprintf("Go implementation primitives: local call %.1fµs, remote call %.1fµs, datagram %.1fµs\n",
		m.GoMicros[simclock.DataServerCall], m.GoMicros[simclock.InterNodeCall], m.GoMicros[simclock.Datagram])
}

// Package core assembles a TABS node (paper Figure 3-1): the Accent-like
// kernel, the common log on the node's disk, and the four TABS system
// components — Name Server, Communication Manager, Recovery Manager and
// Transaction Manager — plus the registry of user-programmed data servers
// and the application library.
//
// A Node owns no global state: several nodes connected by a
// comm.MemNetwork form an in-process cluster, and cmd/tabsnode runs one
// node per OS process over TCP. Node.Crash discards all volatile state;
// constructing a new Node over the same disk and re-attaching the same
// data servers, then calling Recover, performs crash recovery.
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tabs/internal/acp"
	"tabs/internal/applib"
	"tabs/internal/comm"
	"tabs/internal/disk"
	"tabs/internal/kernel"
	"tabs/internal/lock"
	"tabs/internal/nameserver"
	"tabs/internal/recovery"
	"tabs/internal/simclock"
	"tabs/internal/srvlib"
	"tabs/internal/stats"
	"tabs/internal/trace"
	"tabs/internal/txn"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// DataServerService is the Communication Manager service that carries
// remote data server calls.
const DataServerService = "datasrv"

// TraceControlService is the Communication Manager service through which
// tabsctl queries a live node's trace and metrics (commands "trace",
// "metrics", "reset"; replies are trace.Export JSON).
const TraceControlService = "tracectl"

// PlacementControlService is the Communication Manager service through
// which tabsctl dumps a live node's placement maps and Name Server tables
// (command "placement"; replies are PlacementReport JSON).
const PlacementControlService = "placectl"

// ACPControlService is the Communication Manager service through which
// tabsctl dumps a live node's commit-protocol state: the configured
// protocol, the acceptor set, the acceptor's per-transaction Paxos
// instances, and the transactions still held by the Transaction Manager
// (command "acp"; replies are ACPReport JSON).
const ACPControlService = "acpctl"

// Errors.
var (
	ErrCrashed      = errors.New("core: node has crashed")
	ErrNoServer     = errors.New("core: no such data server")
	ErrRecovering   = errors.New("core: node is recovering")
	ErrSegmentSize  = errors.New("core: segment exists with different size")
	ErrSegmentSpace = errors.New("core: disk space exhausted for segments")
)

// Config parameterizes a node.
type Config struct {
	ID types.NodeID
	// Disk is the node's non-volatile storage. Reuse the same Disk across
	// Node generations to simulate crash/restart.
	Disk *disk.Disk
	// LogSectors is the size of the log region including its anchor.
	LogSectors int64
	// PoolPages bounds the kernel buffer pool.
	PoolPages int
	// Transport connects the node to the network; nil isolates it.
	Transport comm.Transport
	// Registry gives each TABS component its own primitive recorder
	// ("<id>/kernel", "<id>/rm", "<id>/tm", "<id>/cm", "<id>/wal",
	// "<id>/srv"), which the benchmark projections need to attribute
	// messages to components (paper §5.3). Nil selects a private registry.
	Registry *stats.Registry
	// CheckpointEvery configures the Recovery Manager.
	CheckpointEvery int
	// LockTimeout is the default data-server lock time-out.
	LockTimeout time.Duration
	// DisableTrace turns the per-node trace/metrics layer off entirely;
	// every component then takes the nil-tracer fast path.
	DisableTrace bool
	// WALFaultHook threads the fault-injection layer into the node's log
	// (see wal.Config.FaultHook); nil injects nothing.
	WALFaultHook wal.FaultHook
	// CommitProtocol selects how this node's top-level transactions reach
	// their commit decision: "2pc" (or empty, the default) is the paper's
	// coordinator-forces-the-commit-record; "paxos" replicates the decision
	// across the Acceptors quorum (Paxos Commit), surviving coordinator
	// death while a majority of acceptors live.
	CommitProtocol string
	// Acceptors names the replica set for "paxos" commits started by this
	// node. Every node answers acceptor traffic regardless, so the set may
	// name any nodes in the cluster; odd sizes (2F+1) tolerate F failures.
	Acceptors []types.NodeID
}

// Commit-protocol names accepted by Config.CommitProtocol.
const (
	Protocol2PC   = "2pc"
	ProtocolPaxos = "paxos"
)

// Node is one TABS machine.
type Node struct {
	id  types.NodeID
	cfg Config
	d   *disk.Disk
	rec *stats.Recorder
	tr  *trace.Tracer

	Kernel *kernel.Kernel
	Log    *wal.Log
	RM     *recovery.Manager
	TM     *txn.Manager
	CM     *comm.Manager
	ACP    *acp.Manager
	NS     *nameserver.Server
	App    *applib.Lib

	mu         sync.Mutex
	servers    map[types.ServerID]*srvlib.Server
	factories  map[string]ShardFactory
	segDir     map[types.SegmentID]segEntry
	nextFree   disk.Addr
	afterRecov []func() error
	crashed    bool
	recovering bool

	// MigrateHook, when set before a migration is driven from this node,
	// is called at named stages of the move ("copied", "sealed",
	// "published"); crash tests use it to fail nodes at precise points.
	MigrateHook func(stage string)
}

type segEntry struct {
	base  disk.Addr
	pages uint32
}

// segment directory layout: one reserved sector after the log region.
const segDirMagic = 0x5E6D19A7

// NewNode constructs a node over cfg.Disk. The log region is mounted (a
// fresh disk is formatted); segments are re-mapped from the persistent
// segment directory. Call Recover after attaching data servers.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Disk == nil {
		return nil, errors.New("core: config needs a disk")
	}
	if cfg.LogSectors < 2 {
		cfg.LogSectors = 256
	}
	if cfg.Registry == nil {
		cfg.Registry = stats.NewRegistry()
	}
	recorder := func(component string) *stats.Recorder {
		return cfg.Registry.Recorder(string(cfg.ID) + "/" + component)
	}
	n := &Node{
		id:      cfg.ID,
		cfg:     cfg,
		d:       cfg.Disk,
		rec:     recorder("srv"),
		servers: make(map[types.ServerID]*srvlib.Server),
		segDir:  make(map[types.SegmentID]segEntry),
	}
	if !cfg.DisableTrace {
		n.tr = trace.New(string(cfg.ID), 0)
	}
	n.Kernel = kernel.New(kernel.Config{Disk: cfg.Disk, PoolPages: cfg.PoolPages, Rec: recorder("kernel"), Trace: n.tr})
	lg, err := wal.Open(wal.Config{Disk: cfg.Disk, Base: 0, Sectors: cfg.LogSectors, Rec: recorder("wal"), Trace: n.tr, FaultHook: cfg.WALFaultHook})
	if err != nil {
		return nil, fmt.Errorf("core: mounting log: %w", err)
	}
	n.Log = lg
	n.RM = recovery.New(recovery.Config{Log: lg, Kernel: n.Kernel, Rec: recorder("rm"), CheckpointEvery: cfg.CheckpointEvery, Trace: n.tr})
	if cfg.Transport != nil {
		n.CM = comm.New(cfg.ID, cfg.Transport, recorder("cm"))
		n.CM.AttachTracer(n.tr)
	}
	if n.CM != nil {
		n.TM = txn.New(cfg.ID, n.RM, n.CM, recorder("tm"))
		n.CM.SetTransactionNoter(n.TM)
		n.CM.RegisterService(DataServerService, n.handleRemoteCall)
		n.CM.RegisterService(TraceControlService, n.handleTraceControl)
		n.CM.RegisterService(PlacementControlService, n.handlePlacementControl)
		n.CM.RegisterService(ACPControlService, n.handleACPControl)
		n.CM.RegisterService(MigrateControlService, n.handleMigrateControl)
	} else {
		n.TM = txn.New(cfg.ID, n.RM, nil, recorder("tm"))
	}
	n.TM.AttachTracer(n.tr)
	// The acp endpoint is always constructed: the acceptor role must be
	// live (and its state restored through the Recovery Manager) even on
	// nodes whose own transactions use 2PC, because other nodes may name
	// this one in their acceptor sets. Restart ordering matters — the
	// ACPSource is attached before Recover runs, so checkpoint blobs and
	// RecACP records replay into the acceptor table before the in-doubt
	// resolution pass asks it anything.
	if n.CM != nil {
		n.ACP = acp.New(cfg.ID, n.CM)
	} else {
		n.ACP = acp.New(cfg.ID, nil)
	}
	n.ACP.AttachTracer(n.tr)
	n.ACP.SetLogger(n.RM)
	n.RM.SetACPSource(n.ACP)
	n.ACP.SetAcceptors(cfg.Acceptors)
	switch cfg.CommitProtocol {
	case "", Protocol2PC:
		// Default built-in two-phase commit; nothing to install.
	case ProtocolPaxos:
		n.TM.SetProtocol(n.ACP)
	default:
		return nil, fmt.Errorf("core: unknown commit protocol %q", cfg.CommitProtocol)
	}
	n.NS = nameserver.New(cfg.ID, nsBroadcaster(n))
	n.NS.AttachTracer(n.tr)
	n.App = applib.New(n.TM)
	if err := n.loadSegDir(); err != nil {
		return nil, err
	}
	// A disk with prior state may hold committed effects only the log
	// knows about: until Recover replays them, serving a data-server
	// operation could read stale pages — or worse, commit a write that
	// the still-running replay then overwrites with pre-crash images.
	// Refuse data-server traffic until Recover completes. A fresh disk
	// (empty segment directory) has nothing to replay and serves at once.
	n.recovering = len(n.segDir) > 0
	return n, nil
}

// nsBroadcaster adapts the optional CM for the name server.
func nsBroadcaster(n *Node) nameserver.Broadcaster {
	if n.CM == nil {
		return nil
	}
	return n.CM
}

// ID returns the node's identifier.
func (n *Node) ID() types.NodeID { return n.id }

// Tracer returns the node's trace layer (nil when disabled).
func (n *Node) Tracer() *trace.Tracer { return n.tr }

// TraceSnapshot returns the node's buffered spans, oldest first.
func (n *Node) TraceSnapshot() []trace.Span { return n.tr.TraceSnapshot() }

// MetricsSnapshot returns the node's trace-layer metrics by name.
func (n *Node) MetricsSnapshot() map[string]trace.MetricValue { return n.tr.MetricsSnapshot() }

// Disk returns the node's disk.
func (n *Node) Disk() *disk.Disk { return n.d }

// --- segment directory -----------------------------------------------------

func (n *Node) segDirSector() disk.Addr { return disk.Addr(n.cfg.LogSectors) }

func (n *Node) loadSegDir() error {
	var sector [disk.SectorSize]byte
	if _, err := n.d.Read(n.segDirSector(), sector[:]); err != nil {
		return err
	}
	n.nextFree = n.segDirSector() + 1
	if binary.BigEndian.Uint32(sector[0:4]) != segDirMagic {
		return nil // fresh disk: empty directory
	}
	count := int(binary.BigEndian.Uint16(sector[4:6]))
	off := 6
	for i := 0; i < count; i++ {
		id := types.SegmentID(binary.BigEndian.Uint32(sector[off : off+4]))
		base := disk.Addr(binary.BigEndian.Uint64(sector[off+4 : off+12]))
		pages := binary.BigEndian.Uint32(sector[off+12 : off+16])
		n.segDir[id] = segEntry{base: base, pages: pages}
		if end := base + disk.Addr(pages); end > n.nextFree {
			n.nextFree = end
		}
		off += 16
	}
	return nil
}

func (n *Node) storeSegDir() error {
	var sector [disk.SectorSize]byte
	binary.BigEndian.PutUint32(sector[0:4], segDirMagic)
	binary.BigEndian.PutUint16(sector[4:6], uint16(len(n.segDir)))
	off := 6
	for id, e := range n.segDir {
		if off+16 > disk.SectorSize {
			return errors.New("core: segment directory full")
		}
		binary.BigEndian.PutUint32(sector[off:off+4], uint32(id))
		binary.BigEndian.PutUint64(sector[off+4:off+12], uint64(e.base))
		binary.BigEndian.PutUint32(sector[off+12:off+16], e.pages)
		off += 16
	}
	return n.d.Write(n.segDirSector(), sector[:], 0)
}

// EnsureSegment creates or re-maps a recoverable segment of the given size
// in pages. Segment placement is persistent: after a crash, the same call
// re-maps the same disk region (the data server's permanent data).
func (n *Node) EnsureSegment(id types.SegmentID, pages uint32) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.segDir[id]; ok {
		if e.pages != pages {
			return fmt.Errorf("%w: segment %d has %d pages, requested %d", ErrSegmentSize, id, e.pages, pages)
		}
		// The segment may still be kernel-mapped from a former attachment:
		// DetachServer withdraws the server but deliberately leaves its
		// segment mapped (the data stays on disk). Re-attaching — a shard
		// migrating back to a former home, or a destination re-prepared
		// after an aborted import — reuses the live mapping; the size was
		// just checked against the directory, which AddSegment enforced
		// when the mapping was first made.
		if _, err := n.Kernel.SegmentPages(id); err == nil {
			return nil
		}
		return n.Kernel.AddSegment(id, e.base, pages)
	}
	geom := n.d.Geometry()
	if int64(n.nextFree)+int64(pages) > geom.Sectors {
		return fmt.Errorf("%w: need %d pages at %d, disk has %d sectors", ErrSegmentSpace, pages, n.nextFree, geom.Sectors)
	}
	e := segEntry{base: n.nextFree, pages: pages}
	n.segDir[id] = e
	n.nextFree += disk.Addr(pages)
	if err := n.storeSegDir(); err != nil {
		return err
	}
	return n.Kernel.AddSegment(id, e.base, pages)
}

// --- data server registry ----------------------------------------------------

// NewServer creates a data server on this node with its recoverable
// segment ensured, registers it for request routing and crash recovery,
// and returns it. The caller registers operations and starts
// AcceptRequests.
func (n *Node) NewServer(id types.ServerID, seg types.SegmentID, pages uint32, compat lock.Compat, timeout time.Duration) (*srvlib.Server, error) {
	if err := n.EnsureSegment(seg, pages); err != nil {
		return nil, err
	}
	if timeout == 0 {
		timeout = n.cfg.LockTimeout
	}
	s := srvlib.New(srvlib.Config{
		ID:          id,
		Kernel:      n.Kernel,
		RM:          n.RM,
		TM:          n.TM,
		Segment:     seg,
		LockCompat:  compat,
		LockTimeout: timeout,
		Trace:       n.tr,
	})
	s.RecoverServer()
	n.mu.Lock()
	n.servers[id] = s
	n.mu.Unlock()
	// Advertise the server in the Name Server under its own identifier:
	// shard routing resolves "family#i" to a port through exactly this
	// registration, and every server re-advertises on reboot (§3.1.3).
	n.NS.Register(string(id), "data-server", id, types.ObjectID{Segment: seg})
	return s, nil
}

// Server returns the registered data server, if any.
func (n *Node) Server(id types.ServerID) (*srvlib.Server, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.servers[id]
	return s, ok
}

// Recover performs crash recovery: the Recovery Manager scans the log,
// redoes winners, undoes losers, and resolves in-doubt transactions with
// their coordinators (§3.2.2). It must run after every data server has
// been attached (their undo/redo code must be registered) and before the
// node serves new work. On a fresh disk it is a no-op.
func (n *Node) Recover() (*recovery.RestartReport, error) {
	report, err := n.RM.Restart(n.TM)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	hooks := append([]func() error(nil), n.afterRecov...)
	n.mu.Unlock()
	for _, fn := range hooks {
		if err := fn(); err != nil {
			return nil, err
		}
	}
	n.mu.Lock()
	n.recovering = false
	n.mu.Unlock()
	return report, nil
}

// AfterRecover registers fn to run once crash recovery completes; data
// servers use it to rebuild volatile state from recovered permanent state
// (the weak queue's tail pointer is the canonical example, §4.2).
func (n *Node) AfterRecover(fn func() error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.afterRecov = append(n.afterRecov, fn)
}

// --- operation invocation -------------------------------------------------------

// Call invokes op on a local data server within tid, charging one Data
// Server Call primitive covering the request/response exchange.
func (n *Node) Call(server types.ServerID, op string, tid types.TransID, body []byte) ([]byte, error) {
	n.mu.Lock()
	s, ok := n.servers[server]
	crashed, recovering := n.crashed, n.recovering
	n.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	if recovering {
		return nil, fmt.Errorf("%w: %s", ErrRecovering, n.id)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoServer, server)
	}
	n.rec.Record(simclock.DataServerCall)
	// The request enters the server's monitor on this goroutine, as a
	// remote request does in handleRemoteCall; the request/response pair
	// is one Data Server Call primitive.
	return s.Invoke(op, tid, body)
}

// CallRemote invokes op on a data server at another node within tid,
// using session communication through the Communication Managers
// (§2.1.2). One Inter-Node Data Server Call primitive is charged.
func (n *Node) CallRemote(nodeID types.NodeID, server types.ServerID, op string, tid types.TransID, body []byte) ([]byte, error) {
	if nodeID == n.id {
		return n.Call(server, op, tid, body)
	}
	if n.CM == nil {
		return nil, fmt.Errorf("core: node %s has no network", n.id)
	}
	payload := encodeRemoteCall(server, op, body)
	return n.CM.Call(nodeID, DataServerService, tid, payload)
}

// Invoke routes a call through a name-server binding.
func (n *Node) Invoke(b nameserver.Binding, op string, tid types.TransID, body []byte) ([]byte, error) {
	return n.CallRemote(b.Node, b.Server, op, tid, body)
}

// handleRemoteCall is the session-service handler for inbound remote data
// server calls; it dispatches into the local server's coroutine machinery.
func (n *Node) handleRemoteCall(from types.NodeID, tid types.TransID, payload []byte) ([]byte, error) {
	server, op, body, err := decodeRemoteCall(payload)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	s, ok := n.servers[server]
	crashed, recovering := n.crashed, n.recovering
	n.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	if recovering {
		return nil, fmt.Errorf("%w: %s", ErrRecovering, n.id)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoServer, server)
	}
	return s.Invoke(op, tid, body)
}

// handleTraceControl serves tabsctl's trace/metrics queries. The payload
// is a bare command string; replies are JSON (trace.Export).
func (n *Node) handleTraceControl(_ types.NodeID, _ types.TransID, payload []byte) ([]byte, error) {
	if n.tr == nil {
		return nil, errors.New("core: tracing disabled on this node")
	}
	switch cmd := string(payload); cmd {
	case "metrics":
		return trace.MarshalExports([]trace.Export{n.tr.Export(false)})
	case "trace":
		return trace.MarshalExports([]trace.Export{n.tr.Export(true)})
	case "reset":
		n.tr.Reset()
		return []byte("ok"), nil
	default:
		return nil, fmt.Errorf("core: unknown trace command %q", cmd)
	}
}

// PlacementReport is the placectl reply: the node's installed placement
// maps plus its Name Server table sizes.
type PlacementReport struct {
	Node       types.NodeID            `json:"node"`
	Placements []*nameserver.Placement `json:"placements,omitempty"`
	Stats      nameserver.Stats        `json:"stats"`
}

// handlePlacementControl serves tabsctl's placement dumps.
func (n *Node) handlePlacementControl(_ types.NodeID, _ types.TransID, payload []byte) ([]byte, error) {
	switch cmd := string(payload); cmd {
	case "placement", "":
		rep := PlacementReport{
			Node:       n.id,
			Placements: n.NS.Placements(),
			Stats:      n.NS.StatsSnapshot(),
		}
		sort.Slice(rep.Placements, func(i, j int) bool {
			return rep.Placements[i].Family < rep.Placements[j].Family
		})
		return json.Marshal(rep)
	default:
		return nil, fmt.Errorf("core: unknown placement command %q", cmd)
	}
}

// ACPReport is the acpctl reply: the node's commit-protocol configuration,
// the acceptor's per-transaction Paxos Commit instances, and the top-level
// transactions the Transaction Manager still holds in doubt.
type ACPReport struct {
	Node      types.NodeID        `json:"node"`
	Protocol  string              `json:"protocol"`
	Acceptors []types.NodeID      `json:"acceptors,omitempty"`
	Instances []acp.InstanceState `json:"instances,omitempty"`
	InDoubt   []types.TransID     `json:"in_doubt,omitempty"`
}

// handleACPControl serves tabsctl's commit-protocol dumps.
func (n *Node) handleACPControl(_ types.NodeID, _ types.TransID, payload []byte) ([]byte, error) {
	switch cmd := string(payload); cmd {
	case "acp", "":
		proto := n.cfg.CommitProtocol
		if proto == "" {
			proto = Protocol2PC
		}
		rep := ACPReport{
			Node:      n.id,
			Protocol:  proto,
			Acceptors: n.ACP.Acceptors(),
			Instances: n.ACP.Snapshot(),
			InDoubt:   n.TM.InDoubt(),
		}
		return json.Marshal(rep)
	default:
		return nil, fmt.Errorf("core: unknown acp command %q", cmd)
	}
}

func encodeRemoteCall(server types.ServerID, op string, body []byte) []byte {
	b := make([]byte, 0, 4+len(server)+len(op)+len(body))
	b = binary.BigEndian.AppendUint16(b, uint16(len(server)))
	b = append(b, server...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(op)))
	b = append(b, op...)
	return append(b, body...)
}

func decodeRemoteCall(p []byte) (types.ServerID, string, []byte, error) {
	if len(p) < 2 {
		return "", "", nil, errors.New("core: short remote call")
	}
	ns := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < ns+2 {
		return "", "", nil, errors.New("core: short remote call server")
	}
	server := types.ServerID(p[:ns])
	p = p[ns:]
	no := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < no {
		return "", "", nil, errors.New("core: short remote call op")
	}
	return server, string(p[:no]), p[no:], nil
}

// Crash discards every piece of volatile state the node holds: buffer
// pool, lock tables, live transactions, coroutines, sessions. The disk —
// log and recoverable segments — survives. The node is unusable
// afterwards; build a new Node over the same disk and Recover.
func (n *Node) Crash() {
	n.mu.Lock()
	if n.crashed {
		n.mu.Unlock()
		return
	}
	n.crashed = true
	servers := make([]*srvlib.Server, 0, len(n.servers))
	for _, s := range n.servers {
		servers = append(servers, s)
	}
	n.mu.Unlock()
	for _, s := range servers {
		s.Close()
	}
	if n.CM != nil {
		_ = n.CM.Close()
	}
	n.TM.Crash()
	n.ACP.Crash()
	n.RM.Crash()
	n.Kernel.Crash()
}

// Shutdown cleanly stops the node: dirty pages are flushed, a checkpoint
// is taken, and the network endpoint closes.
func (n *Node) Shutdown() error {
	if err := n.Kernel.FlushAll(); err != nil {
		return err
	}
	if err := n.RM.Checkpoint(); err != nil {
		return err
	}
	n.Crash()
	return nil
}

package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"tabs/internal/comm"
	"tabs/internal/disk"
	"tabs/internal/nameserver"
	"tabs/internal/stats"
	"tabs/internal/trace"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// FaultPlan threads a fault-injection plan through every node a Cluster
// boots: the transport wrapper covers both session and datagram traffic
// (and partitions), the disk hook covers media I/O, the WAL hook covers
// log append/force, and BindTracer lets the plan emit fault.* counters
// through each node's tracer (visible in tabsctl metrics). The interface
// lives here — not in internal/fault — so that fault can depend on core
// (its torture harness drives Clusters) without a cycle; fault.Injector
// implements it. A nil plan (the default) leaves every path byte-for-byte
// untouched, keeping the Table 5-2/5-3 primitive counts identical.
type FaultPlan interface {
	WrapTransport(node types.NodeID, t comm.Transport) comm.Transport
	DiskHook(node types.NodeID) disk.FaultHook
	WALHook(node types.NodeID) wal.FaultHook
	BindTracer(node types.NodeID, tr *trace.Tracer)
}

// Cluster is a convenience harness: several nodes over one in-memory
// network, each with its own disk, sharing a stats registry — the
// in-process analogue of the paper's collection of networked Perq
// workstations.
type Cluster struct {
	Net      *comm.MemNetwork
	Registry *stats.Registry
	nodes    map[types.NodeID]*Node
	disks    map[types.NodeID]*disk.Disk
	opts     ClusterOptions
	// acceptors is the commit-decision replica set under the "paxos"
	// protocol, fixed (or reconfigured between transactions) cluster-wide;
	// reboots reapply it so a restarted coordinator proposes to the same
	// quorum.
	acceptors []types.NodeID
	// placements is the newest map the cluster has applied per family;
	// boots and reboots re-install it so a restarted node never serves
	// from a stale map it recorded before a migration.
	placements map[string]*nameserver.Placement
}

// ClusterOptions tune every node in a cluster.
type ClusterOptions struct {
	DiskSectors     int64
	LogSectors      int64
	PoolPages       int
	CheckpointEvery int
	LockTimeout     time.Duration
	// Faults, when set, wires a fault-injection plan (internal/fault)
	// through every node's transport, disk, and log, across boots and
	// reboots. Nil disables injection entirely.
	Faults FaultPlan
	// CommitProtocol selects the commit-decision protocol for every node:
	// "2pc" (or empty) or "paxos". See core.Config.CommitProtocol.
	CommitProtocol string
	// AcceptorCount sizes the Paxos Commit replica set (first N nodes in
	// sorted name order); 0 means 3 (F=1). Ignored under 2PC.
	AcceptorCount int
}

// DefaultClusterOptions returns settings suitable for tests: small disks,
// modest pools, short lock time-outs.
func DefaultClusterOptions() ClusterOptions {
	return ClusterOptions{
		DiskSectors: 16384,
		LogSectors:  2048,
		PoolPages:   256,
		LockTimeout: 2 * time.Second,
	}
}

// NewCluster creates nodes with the given names.
func NewCluster(opts ClusterOptions, names ...types.NodeID) (*Cluster, error) {
	if opts.DiskSectors == 0 {
		opts = DefaultClusterOptions()
	}
	c := &Cluster{
		Net:        comm.NewMemNetwork(),
		Registry:   stats.NewRegistry(),
		nodes:      make(map[types.NodeID]*Node),
		disks:      make(map[types.NodeID]*disk.Disk),
		opts:       opts,
		placements: make(map[string]*nameserver.Placement),
	}
	for _, name := range names {
		if _, err := c.AddNode(name); err != nil {
			return nil, err
		}
	}
	if opts.CommitProtocol == ProtocolPaxos {
		count := opts.AcceptorCount
		if count <= 0 {
			count = 3
		}
		sorted := c.NodeNames()
		if count > len(sorted) {
			count = len(sorted)
		}
		c.ReconfigureAcceptors(sorted[:count]...)
	}
	return c, nil
}

// ReconfigureAcceptors installs a new Paxos Commit replica set on every
// live node (and on later reboots). Safe only between transactions in the
// sense that in-flight transactions are unaffected: each transaction
// carries the acceptor set it was prepared with in its prepare records and
// datagrams, so it keeps resolving against the old quorum while new
// transactions use the new one.
func (c *Cluster) ReconfigureAcceptors(names ...types.NodeID) {
	c.acceptors = append([]types.NodeID(nil), names...)
	for _, n := range c.nodes {
		n.ACP.SetAcceptors(c.acceptors)
	}
}

// Acceptors returns the cluster's current commit-decision replica set.
func (c *Cluster) Acceptors() []types.NodeID {
	return append([]types.NodeID(nil), c.acceptors...)
}

// AddNode creates one node with a fresh disk.
func (c *Cluster) AddNode(name types.NodeID) (*Node, error) {
	if _, dup := c.nodes[name]; dup {
		return nil, fmt.Errorf("core: duplicate node %s", name)
	}
	d := disk.New(disk.DefaultGeometry(c.opts.DiskSectors))
	c.disks[name] = d
	return c.bootNode(name, d)
}

func (c *Cluster) bootNode(name types.NodeID, d *disk.Disk) (*Node, error) {
	tr := comm.Transport(c.Net.Endpoint(name))
	var walHook wal.FaultHook
	if c.opts.Faults != nil {
		tr = c.opts.Faults.WrapTransport(name, tr)
		walHook = c.opts.Faults.WALHook(name)
		// The hook survives on the disk across reboots, but re-setting it
		// is harmless and keeps AddNode and Reboot symmetric. When no plan
		// is configured the disk is left alone, so tests may install their
		// own hooks directly and Reboot without losing them.
		d.SetFaultHook(c.opts.Faults.DiskHook(name))
	}
	n, err := NewNode(Config{
		ID:              name,
		Disk:            d,
		LogSectors:      c.opts.LogSectors,
		PoolPages:       c.opts.PoolPages,
		Transport:       tr,
		Registry:        c.Registry,
		CheckpointEvery: c.opts.CheckpointEvery,
		LockTimeout:     c.opts.LockTimeout,
		WALFaultHook:    walHook,
		CommitProtocol:  c.opts.CommitProtocol,
		Acceptors:       c.acceptors,
	})
	if err != nil {
		return nil, err
	}
	if c.opts.Faults != nil {
		c.opts.Faults.BindTracer(name, n.Tracer())
	}
	// Install the newest cluster placements before the node serves
	// anything: a node rebooted (or added) after a migration must not
	// recover a pre-migration view of where shards live.
	for _, p := range c.placements {
		n.NS.SetPlacement(p)
	}
	c.nodes[name] = n
	return n, nil
}

// Node returns the named node.
func (c *Cluster) Node(name types.NodeID) *Node { return c.nodes[name] }

// Nodes returns every live node, keyed by name (shared map copy; callers
// must not mutate node membership through it).
func (c *Cluster) Nodes() map[types.NodeID]*Node {
	out := make(map[types.NodeID]*Node, len(c.nodes))
	for name, n := range c.nodes {
		out[name] = n
	}
	return out
}

// NodeNames returns every live node's name in sorted order — the
// canonical node list that placement computation requires (every computer
// of a placement map must agree on the order).
func (c *Cluster) NodeNames() []types.NodeID {
	out := make([]types.NodeID, 0, len(c.nodes))
	for name := range c.nodes {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ApplyPlacement installs a placement map in every live node's Name
// Server. Each node's install is version-gated; a node that already holds
// exactly this version is an idempotent re-apply and counts as success,
// but a node holding a *newer* map means the caller is publishing a stale
// version into a cluster that has moved on — a partial install that would
// silently split routing between two maps — so every such node is
// reported and the call fails loudly.
func (c *Cluster) ApplyPlacement(p *nameserver.Placement) error {
	if p == nil || p.Family == "" {
		return errors.New("core: nil or unnamed placement")
	}
	var stale []string
	for _, name := range c.NodeNames() {
		n := c.nodes[name]
		if n.NS.SetPlacement(p) {
			continue
		}
		cur := n.NS.PlacementFor(p.Family)
		if cur != nil && cur.Version == p.Version {
			continue // already installed: idempotent re-apply
		}
		have := uint64(0)
		if cur != nil {
			have = cur.Version
		}
		stale = append(stale, fmt.Sprintf("%s holds v%d", name, have))
	}
	if len(stale) > 0 {
		return fmt.Errorf("core: placement %s v%d rejected by %d/%d nodes (%s): a newer map is already installed",
			p.Family, p.Version, len(stale), len(c.nodes), strings.Join(stale, ", "))
	}
	c.notePlacement(p)
	return nil
}

// notePlacement records p as the newest cluster map for its family if it
// is; boots and reboots re-install from this record.
func (c *Cluster) notePlacement(p *nameserver.Placement) {
	if p == nil {
		return
	}
	if cur := c.placements[p.Family]; cur == nil || p.Version > cur.Version {
		c.placements[p.Family] = p
	}
}

// Placement returns the newest placement map the cluster knows for
// family: the recorded newest, cross-checked against every live node's
// Name Server (a migration publishes through the Name Servers directly).
func (c *Cluster) Placement(family string) *nameserver.Placement {
	best := c.placements[family]
	for _, n := range c.nodes {
		if p := n.NS.PlacementFor(family); p != nil && (best == nil || p.Version > best.Version) {
			best = p
		}
	}
	return best
}

// Crash crashes the named node (volatile state lost, network detached).
func (c *Cluster) Crash(name types.NodeID) {
	if n := c.nodes[name]; n != nil {
		n.Crash()
		delete(c.nodes, name)
	}
}

// Reboot builds a fresh Node over the crashed node's surviving disk. The
// caller must re-attach the node's data servers and then call Recover.
func (c *Cluster) Reboot(name types.NodeID) (*Node, error) {
	d := c.disks[name]
	if d == nil {
		return nil, fmt.Errorf("core: unknown node %s", name)
	}
	if old := c.nodes[name]; old != nil {
		old.Crash()
	}
	return c.bootNode(name, d)
}

// Shutdown stops every node cleanly.
func (c *Cluster) Shutdown() {
	for name, n := range c.nodes {
		_ = n.Shutdown()
		delete(c.nodes, name)
	}
}

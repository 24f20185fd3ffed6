package main

import (
	"fmt"
	"math/rand"
	"time"

	"tabs/internal/core"
	"tabs/internal/nameserver"
	"tabs/internal/servers/intarray"
	"tabs/internal/types"
)

const (
	cellsPerPage = types.PageSize / intarray.CellSize
	// closedClients is fixed, not derived from the machine: the numbers
	// must mean the same thing on every host.
	closedClients = 2
	lockTimeout   = 10 * time.Second
	homeNode      = types.NodeID("n01")
	family        = "arr"
	// maxInflight bounds the open loop: an arrival that finds this many
	// transactions in flight is shed and counts as failed.
	maxInflight = 256
	// sloLimit is the latency limit client.slo_miss_share counts against.
	sloLimit = 50 * time.Millisecond
)

// op is one data server call of a transaction.
type op struct {
	key uint64
	set bool
	val int64 // the value to write, or the value a read must return
}

// plan is one generated transaction: the program receives only this.
type plan struct {
	ops  [4]op
	n    int
	slot int   // the slot the transaction writes; -1 when it only reads
	val  int64 // the value it writes there
}

// worker is one client's generator state and its model of what it has
// been told. A slot is the set of cells (one, or one per shard) that carry
// one value and that only this worker writes.
type worker struct {
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int   // Zipf rank -> page, so hot pages are not neighbours on disk
	seq  int64   // last value issued; values strictly increase per worker
	ack  []int64 // per slot: the last acknowledged value
	// maybe is, per slot, the value of a transaction whose commit call
	// failed without saying which way it went; 0 when there is none.
	maybe []int64
}

// stub is the typed client the generated operations go through:
// intarray.ShardedClient on the distributed workloads, localStub otherwise.
type stub interface {
	Get(tid types.TransID, key uint64) (int64, error)
	Set(tid types.TransID, key uint64, value int64) error
}

// localStub spreads keys over the array servers of one node the way a
// placement spreads them over shards: key k lives on server k%n, cell
// k/n+1.
type localStub struct {
	clients []*intarray.Client
}

func (s localStub) Get(tid types.TransID, key uint64) (int64, error) {
	n := uint64(len(s.clients))
	return s.clients[key%n].Get(tid, uint32(key/n)+1)
}

func (s localStub) Set(tid types.TransID, key uint64, value int64) error {
	n := uint64(len(s.clients))
	return s.clients[key%n].Set(tid, uint32(key/n)+1, value)
}

// workload is one named set of inputs with the cluster it runs on.
type workload struct {
	name  string
	why   string
	model string // device and network model, printed in the header
	load  string // closed or open loop, with client count or rate
	nodes []types.NodeID
	opts  core.ClusterOptions
	// device installs the modelled disk (1 ms sequential, 2 ms otherwise)
	// after warm-up.
	device bool
	// rate is the open-loop arrival rate per second; 0 runs closedClients
	// closed-loop clients.
	rate    float64
	workers int
	slots   int // slots per worker
	// attach creates every node's data servers on a fresh cluster; reattach
	// re-creates one rebooted node's servers before Recover.
	attach   func(c *core.Cluster) error
	reattach func(c *core.Cluster, n *core.Node) error
	servers  func(node types.NodeID) []types.ServerID
	bind     func(n *core.Node) (stub, error)
	// next generates a worker's next transaction. slot >= 0 fixes the slot
	// (the open loop owns slot choice, and set-up touches every slot).
	next func(w *worker, p *plan, slot int)
	// cell is the i-th of the width cells that carry a slot's value; cell 0
	// is homed on homeNode.
	width int
	cell  func(worker, slot, i int) uint64
	// shared lists cells that are read and never written: they must stay 0.
	shared []uint64
}

var workloads = []*workload{localHot(), localCommit(), localPaging(), dist("dist_2pc", core.Protocol2PC), dist("dist_paxos", core.ProtocolPaxos)}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	modelCPU    = "no IO hook, instant MemNetwork delivery: latency is processor time only"
	modelDevice = "Disk.SetIOHook after warm-up sleeps 1 ms per sequential access and 2 ms otherwise, holding the single arm; instant MemNetwork"
)

// singleNode builds the attach functions of a one-node workload with n
// array servers of the given size.
func singleNode(w *workload, n int, cells uint32) {
	ids := make([]types.ServerID, n)
	for i := range ids {
		ids[i] = types.ServerID(fmt.Sprintf("arr%d", i))
	}
	w.nodes = []types.NodeID{homeNode}
	w.reattach = func(_ *core.Cluster, node *core.Node) error {
		for i, id := range ids {
			if _, err := intarray.Attach(node, id, types.SegmentID(i+1), cells, lockTimeout); err != nil {
				return err
			}
		}
		return nil
	}
	w.attach = func(c *core.Cluster) error { return w.reattach(c, c.Node(homeNode)) }
	w.servers = func(types.NodeID) []types.ServerID { return ids }
	w.bind = func(node *core.Node) (stub, error) {
		s := localStub{clients: make([]*intarray.Client, n)}
		for i, id := range ids {
			s.clients[i] = intarray.NewClient(node, node.ID(), id)
		}
		return s, nil
	}
}

// write fills p with one Set of wk's next value on every cell of slot.
func (w *workload) write(wk *worker, p *plan, slot int) {
	wk.seq++
	p.slot, p.val, p.n = slot, wk.seq, w.width
	for i := 0; i < w.width; i++ {
		p.ops[i] = op{key: w.cell(wk.id, slot, i), set: true, val: wk.seq}
	}
}

// writeAny is the next function of a workload whose every transaction
// writes one slot.
func (w *workload) writeAny(wk *worker, p *plan, slot int) {
	if slot < 0 {
		slot = wk.rng.Intn(w.slots)
	}
	w.write(wk, p, slot)
}

const (
	hotServers   = 8
	hotPrivPages = 16 // private pages per worker per server
)

// localHot is the CPU-bound local path: the PR 6 hot-path mix.
func localHot() *workload {
	w := &workload{
		name:  "local_hot",
		why:   "CPU-bound local path: applib, core dispatch, srvlib, lock, kernel hit and WAL append do all the work; disk, comm, nameserver and acp do almost none",
		model: modelCPU,
		load:  fmt.Sprintf("closed loop, %d clients", closedClients),
		opts: core.ClusterOptions{
			DiskSectors: 32768, LogSectors: 8192, PoolPages: 512,
			CheckpointEvery: 1 << 30, LockTimeout: lockTimeout,
		},
		workers: closedClients,
		slots:   hotServers * hotPrivPages,
	}
	// Per server: hotPrivPages pages per worker, then one shared page.
	sharedPage := closedClients * hotPrivPages
	key := func(server, page int) uint64 {
		return uint64(server) + hotServers*uint64(page*cellsPerPage)
	}
	singleNode(w, hotServers, uint32((sharedPage+1)*cellsPerPage))
	w.width = 1
	w.cell = func(worker, slot, _ int) uint64 {
		return key(slot/hotPrivPages, worker*hotPrivPages+slot%hotPrivPages)
	}
	for s := 0; s < hotServers; s++ {
		w.shared = append(w.shared, key(s, sharedPage))
	}
	w.next = func(wk *worker, p *plan, slot int) {
		if slot < 0 {
			slot = wk.rng.Intn(w.slots)
		}
		k := w.cell(wk.id, slot, 0)
		wk.seq++
		p.slot, p.val, p.n = slot, wk.seq, 3
		p.ops[0] = op{key: k, set: true, val: wk.seq}
		p.ops[1] = op{key: k, val: wk.seq}
		p.ops[2] = op{key: w.shared[slot/hotPrivPages]}
	}
	return w
}

const (
	commitPages = 64
	commitRate  = 600
)

// localCommit is the forced-commit path under an arrival schedule.
func localCommit() *workload {
	w := &workload{
		name:  "local_commit",
		why:   "open loop at 600 txn/s against the modelled disk: the WAL force queue, group commit, checkpoints, log reclamation and restart do most of the work; lock and page cache do little",
		model: modelDevice,
		load:  fmt.Sprintf("open loop, %d txn/s, at most %d in flight", commitRate, maxInflight),
		opts: core.ClusterOptions{
			DiskSectors: 16384, LogSectors: 8192, PoolPages: 256,
			// Checkpoints and log reclamation must run several cycles inside
			// the window; every other workload keeps them out of it.
			CheckpointEvery: 2000, LockTimeout: lockTimeout,
		},
		device:  true,
		rate:    commitRate,
		workers: 1,
		slots:   maxInflight,
	}
	singleNode(w, 1, commitPages*cellsPerPage)
	// Slot s is cell s/commitPages of page s%commitPages: 64 private pages,
	// and a free slot for every transaction the open loop may have in flight.
	w.width = 1
	w.cell = func(_, slot, _ int) uint64 {
		return uint64(slot%commitPages*cellsPerPage + slot/commitPages)
	}
	w.next = w.writeAny
	return w
}

const (
	pagingPages = 1024
	pagingPool  = 128
	// pagingZipfS was tuned once so that kernel.hit_share lands near 0.72
	// with a 128-page pool, and then frozen. Latency there comes in steps
	// of one disk access, and at 0.72 the median transaction sits inside the
	// one-fault step; at 0.65 it sat on the edge between two steps and
	// jumped by a quarter from seed to seed. See README.md.
	pagingZipfS = 1.45
	pagingZipfV = 8
	// pagingPermSeed fixes which pages are hot, and so where they lie on
	// the disk, for every seed; the seed drives only the order of visits.
	pagingPermSeed = 1985
)

// localPaging is the larger-than-cache regime.
func localPaging() *workload {
	w := &workload{
		name:  "local_paging",
		why:   "a 1024-page array behind a 128-page pool with Zipf page choice: kernel fault, evict and steal, the pager-to-RM write-ahead protocol and disk reads dominate; 80% read-only beside 20% updates",
		model: modelDevice,
		load:  fmt.Sprintf("closed loop, %d clients", closedClients),
		opts: core.ClusterOptions{
			DiskSectors: 16384, LogSectors: 8192, PoolPages: pagingPool,
			CheckpointEvery: 1 << 30, LockTimeout: lockTimeout,
		},
		device:  true,
		workers: closedClients,
		slots:   pagingPages,
	}
	singleNode(w, 1, pagingPages*cellsPerPage)
	// Worker i owns cell i of every page, so the two never meet on a lock.
	w.width = 1
	w.cell = func(worker, slot, _ int) uint64 { return uint64(slot*cellsPerPage + worker) }
	w.next = func(wk *worker, p *plan, slot int) {
		if slot >= 0 {
			w.write(wk, p, slot)
			return
		}
		p.slot, p.n = -1, 4
		for i := range p.ops {
			page := wk.perm[wk.zipf.Uint64()]
			p.ops[i] = op{key: w.cell(wk.id, page, 0), val: wk.ack[page]}
		}
		if wk.rng.Float64() < 0.2 {
			last := &p.ops[3]
			wk.seq++
			last.set, last.val = true, wk.seq
			p.slot, p.val = int(last.key)/cellsPerPage, wk.seq
		}
	}
	return w
}

const distRows = 16 // slots per worker: one row of three cells, one per shard

// dist is the three-node commit tree, under either commit protocol.
func dist(name, protocol string) *workload {
	nodes := []types.NodeID{homeNode, "n02", "n03"}
	shards := len(nodes)
	totalKeys := uint64(closedClients * distRows * cellsPerPage * shards)
	w := &workload{
		name:  name,
		model: modelCPU,
		load:  fmt.Sprintf("closed loop, %d clients homed on %s", closedClients, homeNode),
		nodes: nodes,
		opts: core.ClusterOptions{
			DiskSectors: 16384, LogSectors: 8192, PoolPages: 256,
			CheckpointEvery: 1 << 30, LockTimeout: lockTimeout,
			CommitProtocol: protocol, AcceptorCount: 3,
		},
		workers: closedClients,
		slots:   distRows,
	}
	if protocol == core.ProtocolPaxos {
		w.why = "the dist_2pc inputs under Paxos Commit with 3 acceptors: the same layers used the other way; the pair is the in-run paxos/2pc ratio"
	} else {
		w.why = "every transaction writes one cell in each of 3 shards on 3 nodes, a commit tree with 2 children: comm, nameserver routing cache, core.Router and txn/twophase carry the cost"
	}
	w.attach = func(c *core.Cluster) error {
		_, err := intarray.AttachSharded(c, family, totalKeys, lockTimeout)
		return err
	}
	w.reattach = func(c *core.Cluster, n *core.Node) error {
		for i, name := range nodes {
			if name != n.ID() {
				continue
			}
			if _, err := intarray.AttachShard(n, family, i, intarray.ShardCells(totalKeys, shards, i), lockTimeout); err != nil {
				return err
			}
		}
		intarray.RegisterMigration(n, family, lockTimeout)
		return nil
	}
	w.servers = func(node types.NodeID) []types.ServerID {
		for i, name := range nodes {
			if name == node {
				return []types.ServerID{nameserver.ShardServerID(family, i)}
			}
		}
		return nil
	}
	w.bind = func(n *core.Node) (stub, error) { return intarray.NewShardedClient(n, family) }
	// Row r of worker i is local cell (i*distRows+r)*cellsPerPage of every
	// shard (a page of its own); key = cell*shards + shard, ascending.
	w.width = shards
	w.cell = func(worker, slot, i int) uint64 {
		return uint64((worker*distRows+slot)*cellsPerPage*shards + i)
	}
	w.next = w.writeAny
	return w
}

// newWorkers seeds one generator per worker: the same seed gives the same
// keys and the same arrival schedule.
func (w *workload) newWorkers(seed int64) []*worker {
	out := make([]*worker, w.workers)
	for i := range out {
		wk := &worker{
			id:    i,
			rng:   rand.New(rand.NewSource(seed*1000003 + int64(i))),
			ack:   make([]int64, w.slots),
			maybe: make([]int64, w.slots),
		}
		if w.name == "local_paging" {
			wk.zipf = rand.NewZipf(wk.rng, pagingZipfS, pagingZipfV, pagingPages-1)
			wk.perm = rand.New(rand.NewSource(pagingPermSeed)).Perm(pagingPages)
		}
		out[i] = wk
	}
	return out
}

// Package fault is the repo's deterministic fault-injection subsystem.
//
// TABS's claims (paper §3–4) are about surviving crashes, lost messages,
// and media failures; this package turns those adversities into a seeded,
// reproducible *plan*. An Injector owns a set of named injection points
// threaded through the three I/O layers:
//
//	disk.write.fail    write fails, media untouched
//	disk.write.torn    half the sector lands, header stays stale
//	disk.write.crash   write fails and a node crash is requested
//	disk.read.fail     read fails
//	wal.append.crash   record is appended; a crash is requested before
//	                   the harness lets the node run on (exercises loss
//	                   of appended-but-unforced records)
//	wal.force.fail     log force fails before touching disk
//	wal.force.crash    as wal.force.fail, plus a crash request
//	comm.session.drop / dup / delay / reorder
//	comm.datagram.drop / dup / delay / reorder
//
// plus directed network partitions (symmetric or asymmetric) with heal.
//
// Determinism: every decision at a point is a pure function of
// (seed, node, point, per-point sequence number) — a splitmix64-style
// hash, not a shared rand stream — so concurrent goroutines hitting
// different points cannot perturb each other's decision sequences. Two
// runs with the same seed and the same workload schedule see the same
// faults at the same points. Failures therefore reproduce from a printed
// seed; Events() returns the fault trace for the failure report.
//
// Injected faults are visible operationally: every fired point bumps a
// "fault.<point>" counter on the node's tracer (BindTracer), which
// surfaces in `tabsctl metrics` like any other counter.
package fault

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"tabs/internal/disk"
	"tabs/internal/trace"
	"tabs/internal/types"
	"tabs/internal/wal"
)

// ErrInjected marks failures manufactured by the injector.
var ErrInjected = errors.New("fault: injected failure")

// Rule gives one injection point a firing probability and an optional
// budget; Max > 0 caps how many times the point may fire (so a profile
// can guarantee forward progress).
type Rule struct {
	Prob float64
	Max  int
}

// Profile is a named bundle of injection rules plus the schedule knobs the
// torture harness consumes (per-transaction probabilities; the injector
// itself only reads Rules).
type Profile struct {
	Name  string
	Rules map[string]Rule

	// CrashProb is the harness's per-transaction probability of crashing
	// a random node (in addition to crashes the injector requests).
	CrashProb float64
	// PartitionProb is the per-transaction probability of introducing a
	// partition between two random nodes; PartitionTxns is how many
	// transactions it lasts before healing.
	PartitionProb float64
	PartitionTxns int
	// DownTxns bounds how many transactions a crashed node stays down
	// before the harness reboots it (actual value is seeded-random in
	// [1, DownTxns]).
	DownTxns int
}

// ProfileNames lists the built-in profiles.
func ProfileNames() []string {
	return []string{"none", "net", "crash", "partition", "disk", "chaos"}
}

// ProfileByName returns a built-in fault profile:
//
//	none       no faults (the plan is inert until Enable anyway)
//	net        message drop/dup/delay/reorder on both traffic kinds
//	crash      node crashes, including disk- and WAL-requested crash points
//	partition  network partitions plus light datagram loss
//	disk       I/O errors, torn writes, log force failures (budgeted)
//	chaos      all of the above, moderated
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "", "none":
		return Profile{Name: "none"}, nil
	case "net":
		return Profile{
			Name: "net",
			Rules: map[string]Rule{
				"comm.datagram.drop":    {Prob: 0.20},
				"comm.datagram.dup":     {Prob: 0.10},
				"comm.datagram.delay":   {Prob: 0.10},
				"comm.datagram.reorder": {Prob: 0.05},
				"comm.session.drop":     {Prob: 0.10},
				"comm.session.dup":      {Prob: 0.10},
				"comm.session.delay":    {Prob: 0.10},
				"comm.session.reorder":  {Prob: 0.05},
			},
		}, nil
	case "crash":
		return Profile{
			Name: "crash",
			Rules: map[string]Rule{
				"disk.write.crash": {Prob: 0.002, Max: 6},
				"wal.append.crash": {Prob: 0.01, Max: 6},
				"wal.force.crash":  {Prob: 0.01, Max: 4},
			},
			CrashProb: 0.08,
			DownTxns:  4,
		}, nil
	case "partition":
		return Profile{
			Name: "partition",
			Rules: map[string]Rule{
				"comm.datagram.drop": {Prob: 0.10},
				"comm.session.drop":  {Prob: 0.05},
			},
			PartitionProb: 0.10,
			PartitionTxns: 4,
		}, nil
	case "disk":
		return Profile{
			Name: "disk",
			Rules: map[string]Rule{
				"disk.write.fail": {Prob: 0.01, Max: 12},
				"disk.write.torn": {Prob: 0.005, Max: 6},
				"disk.read.fail":  {Prob: 0.002, Max: 4},
				"wal.force.fail":  {Prob: 0.01, Max: 8},
			},
			DownTxns: 3,
		}, nil
	case "chaos":
		return Profile{
			Name: "chaos",
			Rules: map[string]Rule{
				"comm.datagram.drop":    {Prob: 0.12},
				"comm.datagram.dup":     {Prob: 0.08},
				"comm.datagram.delay":   {Prob: 0.08},
				"comm.datagram.reorder": {Prob: 0.04},
				"comm.session.drop":     {Prob: 0.06},
				"comm.session.dup":      {Prob: 0.06},
				"comm.session.delay":    {Prob: 0.06},
				"comm.session.reorder":  {Prob: 0.03},
				"disk.write.fail":       {Prob: 0.008, Max: 10},
				"disk.write.torn":       {Prob: 0.004, Max: 5},
				"disk.read.fail":        {Prob: 0.001, Max: 3},
				"disk.write.crash":      {Prob: 0.001, Max: 3},
				"wal.force.fail":        {Prob: 0.008, Max: 6},
				"wal.append.crash":      {Prob: 0.006, Max: 4},
				"wal.force.crash":       {Prob: 0.006, Max: 3},
			},
			CrashProb:     0.06,
			PartitionProb: 0.06,
			PartitionTxns: 3,
			DownTxns:      4,
		}, nil
	default:
		return Profile{}, fmt.Errorf("fault: unknown profile %q (have %s)", name, strings.Join(ProfileNames(), ", "))
	}
}

// Event is one entry in the fault trace.
type Event struct {
	Seq    int
	Node   types.NodeID
	Point  string
	Peer   types.NodeID // message faults and partitions: the other node
	Detail int64        // disk faults: the sector address
}

// String renders one trace line.
func (e Event) String() string {
	s := fmt.Sprintf("%04d %-4s %s", e.Seq, e.Node, e.Point)
	if e.Peer != "" {
		s += fmt.Sprintf(" peer=%s", e.Peer)
	}
	if e.Detail != 0 {
		s += fmt.Sprintf(" detail=%d", e.Detail)
	}
	return s
}

// maxEvents bounds the retained fault trace (a ring: newest kept).
const maxEvents = 2048

type pointState struct {
	seq   uint64 // decisions taken at this point
	fires int    // decisions that fired
}

type pairKey struct{ from, to types.NodeID }

// Injector is a seeded, deterministic fault plan. It implements
// core.FaultPlan, so handing it to core.ClusterOptions.Faults threads its
// hooks through every node's transport, disk, and log. The zero value is
// unusable; construct with New. All methods are safe for concurrent use.
//
// The injector starts disabled: cluster setup and initial recovery run
// clean, then Enable arms the plan. Disable (plus HealAll) returns the
// world to normal for final verification.
type Injector struct {
	seed    int64
	profile Profile

	mu       sync.Mutex
	enabled  bool
	points   map[string]*pointState
	blocked  map[pairKey]bool
	crashQ   []types.NodeID
	events   []Event
	evHead   int // ring start in events once saturated
	evSeq    int
	tracers  map[types.NodeID]*trace.Tracer
	delaySeq uint64
}

// New returns an Injector for the given seed and profile, disabled.
func New(seed int64, profile Profile) *Injector {
	return &Injector{
		seed:    seed,
		profile: profile,
		points:  make(map[string]*pointState),
		blocked: make(map[pairKey]bool),
		tracers: make(map[types.NodeID]*trace.Tracer),
	}
}

// Seed returns the plan's seed (print it with every failure).
func (in *Injector) Seed() int64 { return in.seed }

// ScheduleKnobs returns the harness-facing schedule parameters.
func (in *Injector) ScheduleKnobs() Profile { return in.profile }

// Enable arms the plan; Disable disarms it (partitions persist until
// healed — they are harness state, not per-access decisions).
func (in *Injector) Enable() { in.setEnabled(true) }

// Disable stops all fault decisions from firing.
func (in *Injector) Disable() { in.setEnabled(false) }

func (in *Injector) setEnabled(v bool) {
	in.mu.Lock()
	in.enabled = v
	in.mu.Unlock()
}

func (in *Injector) isEnabled() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.enabled
}

// --- deterministic decision streams ----------------------------------------

// splitmix64 is the standard 64-bit finalizing mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hashString is FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// unitFloat maps a hash to [0, 1).
func unitFloat(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// fire takes the next decision for (node, point). It is deterministic in
// (seed, node, point, sequence number at that point): the schedule of
// calls fixes the schedule of faults.
func (in *Injector) fire(node types.NodeID, point string, peer types.NodeID, detail int64) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.enabled {
		return false
	}
	r, ok := in.profile.Rules[point]
	if !ok || r.Prob <= 0 {
		return false
	}
	key := string(node) + "/" + point
	st := in.points[key]
	if st == nil {
		st = &pointState{}
		in.points[key] = st
	}
	seq := st.seq
	st.seq++
	if r.Max > 0 && st.fires >= r.Max {
		return false
	}
	x := splitmix64(uint64(in.seed) ^ hashString(key) ^ (seq * 0x9E3779B97F4A7C15))
	if unitFloat(x) >= r.Prob {
		return false
	}
	st.fires++
	in.recordLocked(Event{Node: node, Point: point, Peer: peer, Detail: detail})
	return true
}

// recordLocked appends a trace event and bumps the node's fault counter.
// Caller holds in.mu.
func (in *Injector) recordLocked(e Event) {
	e.Seq = in.evSeq
	in.evSeq++
	if len(in.events) < maxEvents {
		in.events = append(in.events, e)
	} else {
		in.events[in.evHead] = e
		in.evHead = (in.evHead + 1) % maxEvents
	}
	in.tracers[e.Node].Count("fault."+e.Point, 1)
}

// Events returns the retained fault trace, oldest first.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, 0, len(in.events))
	out = append(out, in.events[in.evHead:]...)
	out = append(out, in.events[:in.evHead]...)
	return out
}

// FormatEvents renders the fault trace for a failure report.
func (in *Injector) FormatEvents() string {
	evs := in.Events()
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// --- crash requests ---------------------------------------------------------

// requestCrash queues a crash for node; the torture harness takes requests
// at transaction boundaries and performs the actual Crash/Reboot.
func (in *Injector) requestCrash(node types.NodeID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, q := range in.crashQ {
		if q == node {
			return
		}
	}
	in.crashQ = append(in.crashQ, node)
	in.recordLocked(Event{Node: node, Point: "crash.requested"})
}

// TakeCrashRequest pops the oldest pending crash request, if any.
func (in *Injector) TakeCrashRequest() (types.NodeID, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.crashQ) == 0 {
		return "", false
	}
	n := in.crashQ[0]
	in.crashQ = in.crashQ[1:]
	return n, true
}

// --- partitions -------------------------------------------------------------

// Partition blocks traffic from a to b; when symmetric, b to a as well.
// Partitions act even while the injector is disabled — they model harness
// topology, not probabilistic faults — and persist until healed.
func (in *Injector) Partition(a, b types.NodeID, symmetric bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.blocked[pairKey{a, b}] = true
	in.recordLocked(Event{Node: a, Point: "partition.set", Peer: b})
	if symmetric {
		in.blocked[pairKey{b, a}] = true
		in.recordLocked(Event{Node: b, Point: "partition.set", Peer: a})
	}
}

// Heal removes the a→b block (both directions).
func (in *Injector) Heal(a, b types.NodeID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.blocked, pairKey{a, b})
	delete(in.blocked, pairKey{b, a})
	in.recordLocked(Event{Node: a, Point: "partition.heal", Peer: b})
}

// HealAll removes every partition.
func (in *Injector) HealAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.blocked) > 0 {
		in.blocked = make(map[pairKey]bool)
		in.recordLocked(Event{Point: "partition.healall"})
	}
}

// Partitioned reports whether from→to traffic is currently blocked.
func (in *Injector) Partitioned(from, to types.NodeID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.blocked[pairKey{from, to}]
}

// countPartitionDrop bumps the partition-drop counter for node.
func (in *Injector) countPartitionDrop(node types.NodeID) {
	in.mu.Lock()
	tr := in.tracers[node]
	in.mu.Unlock()
	tr.Count("fault.partition.dropped", 1)
}

// delayFor produces a small deterministic delivery delay (1–12 ms), its
// own seeded stream so delayed deliveries don't perturb fire decisions.
func (in *Injector) delayFor() time.Duration {
	in.mu.Lock()
	seq := in.delaySeq
	in.delaySeq++
	in.mu.Unlock()
	x := splitmix64(uint64(in.seed) ^ 0xDE1A ^ (seq * 0x9E3779B97F4A7C15))
	return time.Duration(1+x%12) * time.Millisecond
}

// --- core.FaultPlan hooks ---------------------------------------------------

// BindTracer points node's fault.* counters at tr (call per node boot;
// core does this automatically when the plan is set on ClusterOptions).
func (in *Injector) BindTracer(node types.NodeID, tr *trace.Tracer) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tracers[node] = tr
}

// DiskHook returns the disk-layer fault hook for node.
func (in *Injector) DiskHook(node types.NodeID) disk.FaultHook {
	return func(write bool, addr disk.Addr) disk.FaultAction {
		if write {
			if in.fire(node, "disk.write.crash", "", int64(addr)) {
				in.requestCrash(node)
				return disk.FaultError
			}
			if in.fire(node, "disk.write.torn", "", int64(addr)) {
				return disk.FaultTorn
			}
			if in.fire(node, "disk.write.fail", "", int64(addr)) {
				return disk.FaultError
			}
			return disk.FaultNone
		}
		if in.fire(node, "disk.read.fail", "", int64(addr)) {
			return disk.FaultError
		}
		return disk.FaultNone
	}
}

// WALHook returns the log-layer fault hook for node.
func (in *Injector) WALHook(node types.NodeID) wal.FaultHook {
	return func(point string) error {
		switch point {
		case "wal.force":
			if in.fire(node, "wal.force.crash", "", 0) {
				in.requestCrash(node)
				return ErrInjected
			}
			if in.fire(node, "wal.force.fail", "", 0) {
				return ErrInjected
			}
		case "wal.append":
			// The append itself succeeds; the crash request is honored by
			// the harness at the next transaction boundary, losing any
			// records appended but never forced in between.
			if in.fire(node, "wal.append.crash", "", 0) {
				in.requestCrash(node)
			}
		}
		return nil
	}
}

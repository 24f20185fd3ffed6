package main

import (
	"runtime"
	"slices"

	"tabs/internal/simclock"
	"tabs/internal/stats"
)

// counters is one reading of everything the program already exposes:
// trace-layer counters and histograms summed over the nodes, the paper's
// primitive counts, and the kernel, disk and lock manager totals.
type counters struct {
	trace map[string]float64 // counters by name; histograms as name.count and name.sum
	prims stats.Counts
	// Summed over the nodes.
	faults, evictions int64
	reads, writes     int64
	grants, waits     int64
	timeouts          int64
	mem               runtime.MemStats
	devBusyNs         int64
	devAccesses       int64
	devSequential     int64
}

func (fx *fixture) read() counters {
	c := counters{trace: make(map[string]float64)}
	for name, n := range fx.c.Nodes() {
		for metric, v := range n.MetricsSnapshot() {
			switch v.Kind {
			case "counter":
				c.trace[metric] += v.Value
			case "histogram":
				c.trace[metric+".count"] += float64(v.Count)
				c.trace[metric+".sum"] += v.Sum
			}
		}
		f, e := n.Kernel.Stats()
		c.faults += f
		c.evictions += e
		r, w := n.Disk().Stats()
		c.reads += r
		c.writes += w
		for _, id := range fx.w.servers(name) {
			if s, ok := n.Server(id); ok {
				ls := s.Locks().Stats()
				c.grants += ls.Grants
				c.waits += ls.Waits
				c.timeouts += ls.Timeouts
			}
		}
	}
	c.prims = fx.c.Registry.TotalCounts(stats.PreCommit).Add(fx.c.Registry.TotalCounts(stats.Commit))
	if fx.dev != nil {
		c.devBusyNs = fx.dev.busyNs.Load()
		c.devAccesses = fx.dev.accesses.Load()
		c.devSequential = fx.dev.sequential.Load()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// since returns the counts accumulated between an earlier reading and c.
func (c counters) since(b counters) counters {
	d := c
	d.trace = make(map[string]float64, len(c.trace))
	for k, v := range c.trace {
		d.trace[k] = v - b.trace[k]
	}
	d.prims = c.prims.Sub(b.prims)
	d.faults -= b.faults
	d.evictions -= b.evictions
	d.reads -= b.reads
	d.writes -= b.writes
	d.grants -= b.grants
	d.waits -= b.waits
	d.timeouts -= b.timeouts
	d.devBusyNs -= b.devBusyNs
	d.devAccesses -= b.devAccesses
	d.devSequential -= b.devSequential
	d.mem.Mallocs -= b.mem.Mallocs
	d.mem.TotalAlloc -= b.mem.TotalAlloc
	d.mem.NumGC -= b.mem.NumGC
	d.mem.PauseTotalNs -= b.mem.PauseTotalNs
	return d
}

// layerMetrics turns one untraced window and the counts over it into the
// per-layer count metrics: deltas divided by committed transactions.
func layerMetrics(m metricSet, win *window, d counters) ledgerCounts {
	txns := float64(win.committed())
	per := func(v float64) float64 { return ratio(v, txns) }
	t := d.trace
	refs := float64(win.gets + win.sets) // every operation references one page

	all := win.latencies()
	m["client.window_txn_per_s"] = ratio(float64(win.committed()), win.elapsed.Seconds())
	m["client.window_p50_us"] = win.us(all, 0.50)
	m["client.window_p99_us"] = win.us(all, 0.99)
	m["client.txn_p999_us"] = win.us(all, 0.999)
	over := win.failed
	for i := len(all) - 1; i >= 0 && all[i] > int64(sloLimit); i-- {
		over++
	}
	m["client.slo_miss_share"] = ratio(float64(over), float64(win.attempted()))
	m["client.gen_late_p99_us"] = 0
	if len(win.late) > 0 {
		late := append([]int64(nil), win.late...)
		slices.Sort(late)
		m["client.gen_late_p99_us"] = float64(quantile(late, 0, 0, 0.99)) / 1e3
	}
	m["client.inflight_max"] = float64(win.inflightMax)

	m["core.router_redirects"] = t["router.redirect"]

	m["lock.grants_per_txn"] = per(float64(d.grants))
	m["lock.waits_per_txn"] = per(float64(d.waits))
	m["lock.timeouts"] = float64(d.timeouts)

	m["kernel.hit_share"] = 1 - ratio(float64(d.faults), refs)
	m["kernel.faults_per_txn"] = per(float64(d.faults))
	m["kernel.evictions_per_txn"] = per(float64(d.evictions))
	m["kernel.steals_per_txn"] = per(t["kernel.steal.count"])
	m["kernel.pin_stalls"] = t["kernel.pin_stall.count"]

	m["recovery.checkpoints"] = t["recovery.checkpoint.count"]
	m["recovery.reclaims"] = t["recovery.reclaim.count"]

	m["wal.records_per_txn"] = per(t["wal.append.records"])
	m["wal.bytes_per_txn"] = per(t["wal.append.bytes"])
	m["wal.bytes_per_user_byte"] = ratio(t["wal.append.bytes"], float64(win.sets)*8)
	m["wal.forces_per_txn"] = per(t["wal.force.count"])
	m["wal.group_size_mean"] = ratio(t["wal.force.group_size.sum"], t["wal.force.group_size.count"])
	m["wal.force_ms_mean"] = ratio(t["wal.force.ms.sum"], t["wal.force.ms.count"])

	m["disk.reads_per_txn"] = per(float64(d.reads))
	m["disk.writes_per_txn"] = per(float64(d.writes))
	m["disk.seq_share"] = ratio(float64(d.devSequential), float64(d.devAccesses))
	m["disk.device_ms_per_txn"] = per(float64(d.devBusyNs) / 1e6)
	m["disk.busy_share"] = ratio(float64(d.devBusyNs), float64(win.elapsed))

	// txn.commits counts the commits that logged; read-only ones are apart.
	m["txn.readonly_share"] = ratio(t["txn.commits.readonly"], t["txn.commits.readonly"]+t["txn.commits"])
	m["txn.commit_children_mean"] = ratio(t["txn.commit.children.sum"], t["txn.commit.children.count"])
	m["txn.aborts_per_txn"] = per(t["txn.aborts"])
	m["txn.round_retransmits"] = t["txn.round.retransmits"]

	m["acp.accepts_per_txn"] = per(t["acp.accept"])
	m["acp.decides_per_txn"] = per(t["acp.decide"])
	m["acp.decide_noquorum"] = t["acp.decide.noquorum"]

	m["comm.retransmits"] = t["comm.session.retransmits"]

	lookups := t["ns.lookup.cache_hits"] + t["ns.lookup.cache_misses"]
	m["nameserver.cache_hit_share"] = ratio(t["ns.lookup.cache_hits"], lookups)
	m["nameserver.broadcasts"] = t["ns.lookup.broadcasts"]

	m["stats.data_server_calls_per_txn"] = per(d.prims[simclock.DataServerCall])
	m["stats.inter_node_calls_per_txn"] = per(d.prims[simclock.InterNodeCall])
	m["stats.datagrams_per_txn"] = per(d.prims[simclock.Datagram])
	m["stats.small_msgs_per_txn"] = per(d.prims[simclock.SmallMsg])
	m["stats.large_msgs_per_txn"] = per(d.prims[simclock.LargeMsg])
	m["stats.page_ios_per_txn"] = per(d.prims[simclock.RandomPageIO] + d.prims[simclock.SequentialRead])
	m["stats.stable_writes_per_txn"] = per(d.prims[simclock.StableWrite])

	m["runtime.allocs_per_txn"] = per(float64(d.mem.Mallocs))
	m["runtime.alloc_bytes_per_txn"] = per(float64(d.mem.TotalAlloc))
	m["runtime.gc_cycles"] = float64(d.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(d.mem.PauseTotalNs) / 1e6

	return ledgerCounts{
		refs:      per(refs),
		sets:      per(float64(win.sets)),
		lookups:   per(lookups),
		datagrams: per(t["comm.datagram.sent"]),
	}
}

// ledgerCounts are what the ledger multiplies prices by and that is not a
// metric of its own: per committed transaction, except tracedUs, the mean
// transaction time of the traced window.
type ledgerCounts struct {
	refs, sets, lookups, datagrams float64
	tracedUs                       float64
}

// spanMetrics turns the traced window into the span metrics and the
// counts that only the benchmark's own hooks can see; it returns the
// traced window's mean transaction time in microseconds.
func spanMetrics(m metricSet, traced, untraced *window, quiet bool) (tracedUs float64) {
	s := &traced.spans
	txns := float64(s.txns)
	m["applib.begin_us"] = ratio(float64(s.beginNs), txns) / 1e3
	m["applib.end_us"] = ratio(float64(s.endNs), txns) / 1e3
	m["intarray.get_us"] = ratio(float64(s.getNs), float64(s.gets)) / 1e3
	m["intarray.set_us"] = ratio(float64(s.setNs), float64(s.sets)) / 1e3
	m["comm.msgs_per_txn"] = ratio(float64(s.sends), txns)
	m["comm.bytes_per_txn"] = ratio(float64(s.sendB), txns)
	m["comm.send_us"] = ratio(float64(s.sendNs), float64(s.sends)) / 1e3
	m["wal.force_waiters_mean"] = ratio(s.waiters, float64(s.waiterSamples))
	// The two windows run minutes apart on a shared host; where the
	// workload is processor-bound only their quiet slices compare.
	rate := func(w *window) float64 {
		if quiet && len(w.slices) > 0 {
			return w.quiet(func(s slice) float64 { return s.perS }, true)
		}
		return ratio(float64(w.committed()), w.elapsed.Seconds())
	}
	m["client.trace_overhead_share"] = 1 - ratio(rate(traced), rate(untraced))
	return ratio(float64(s.txnNs), txns) / 1e3
}

// ledger is the modern Table 5-4 column: each priced layer's calls per
// transaction times its probe price, plus the modelled device time,
// summed and set against the traced mean transaction time. What no price
// explains is the residual, and it is printed, never hidden. Layers
// without a probe (applib, the array server's own code, acp) are inside
// the residual by construction.
func ledger(m metricSet, c ledgerCounts) {
	calls := m["stats.data_server_calls_per_txn"] + m["stats.inter_node_calls_per_txn"]
	forcePrice := max(m["wal.append_force_us"]-m["wal.append_ns"]/1e3, 0)
	lines := map[string]float64{
		"core":       calls * max(m["core.call_noop_ns"]-m["srvlib.invoke_noop_ns"], 0) / 1e3,
		"srvlib":     calls * m["srvlib.invoke_noop_ns"] / 1e3,
		"lock":       m["lock.grants_per_txn"] * m["lock.lock_release_ns"] / 1e3,
		"kernel":     c.refs*m["kernel.read_hit_ns"]/1e3 + m["kernel.faults_per_txn"]*m["kernel.read_miss_us"],
		"recovery":   c.sets * max(m["recovery.log_update_ns"]-m["wal.append_ns"], 0) / 1e3,
		"wal":        m["wal.records_per_txn"]*m["wal.append_ns"]/1e3 + m["wal.forces_per_txn"]*forcePrice,
		"disk":       m["disk.device_ms_per_txn"] * 1e3,
		"txn":        m["txn.begin_end_ro_ns"] / 1e3,
		"comm":       m["stats.inter_node_calls_per_txn"]*m["comm.call_rtt_us"] + c.datagrams*m["comm.send_us"],
		"nameserver": c.lookups * m["nameserver.lookup_cached_ns"] / 1e3,
	}
	var sum float64
	for layer, us := range lines {
		m["ledger."+layer+"_us"] = us
		sum += us
	}
	m["ledger.attributed_share"] = ratio(sum, c.tracedUs)
	m["ledger.residual_us"] = c.tracedUs - sum
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds; a test holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd is what a user of TABS sees. Every workload reports every
// one of them (the driver contract requires it), so the three metrics the
// issue defines for a single workload are defined for all five: see
// README.md, "End-to-end metrics". The bounds are wider than the issue's
// (10%, 15%): the spreads observed on the shared two-core reference host,
// recorded in baseline.json, force them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "txn_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "txn_p50_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "txn_tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ro_txn_p50_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "rw_txn_p50_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "recover_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is the ledger's raw material: counts per committed transaction
// from the untraced window, prices from the probes, spans from the traced
// window. The prefix is the module.
var perLayer = []metricDef{
	{Name: "client.window_txn_per_s", Unit: "1/s", Better: "higher", Moves: "whole untraced window, host noise and background work included"},
	{Name: "client.window_p50_us", Unit: "us", Better: "lower", Moves: "whole untraced window"},
	{Name: "client.window_p99_us", Unit: "us", Better: "lower", Moves: "whole untraced window"},
	{Name: "client.txn_p999_us", Unit: "us", Better: "lower", Moves: "whole untraced window; rare stalls show here"},
	{Name: "client.slo_miss_share", Unit: "ratio", Better: "lower", Moves: "share of transactions over 50 ms, local_commit"},
	{Name: "client.gen_late_p99_us", Unit: "us", Better: "lower", Moves: "open-loop generator lateness, local_commit"},
	{Name: "client.inflight_max", Unit: "count", Better: "lower", Moves: "informational"},
	{Name: "client.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "must stay below 0.05"},

	{Name: "applib.begin_us", Unit: "us", Better: "lower", Moves: "txn_p50_us on local_hot"},
	{Name: "applib.end_us", Unit: "us", Better: "lower", Moves: "txn_p50_us on local_commit, dist_2pc, dist_paxos"},
	{Name: "intarray.get_us", Unit: "us", Better: "lower", Moves: "txn_p50_us on local_hot; ro_txn_p50_us on local_paging"},
	{Name: "intarray.set_us", Unit: "us", Better: "lower", Moves: "txn_p50_us on local_hot"},

	{Name: "core.call_noop_ns", Unit: "ns", Better: "lower", Moves: "txn_per_s on local_hot"},
	{Name: "core.router_redirects", Unit: "count", Better: "lower", Moves: "must be 0: no shard moves"},
	{Name: "srvlib.invoke_noop_ns", Unit: "ns", Better: "lower", Moves: "txn_per_s on local_hot"},

	{Name: "lock.grants_per_txn", Unit: "count", Better: "lower", Moves: "txn_per_s on local_hot"},
	{Name: "lock.waits_per_txn", Unit: "count", Better: "lower", Moves: "txn_tail_us on local_paging"},
	{Name: "lock.timeouts", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "lock.lock_release_ns", Unit: "ns", Better: "lower", Moves: "txn_per_s on local_hot"},

	{Name: "kernel.hit_share", Unit: "ratio", Better: "higher", Moves: "ro_txn_p50_us, txn_per_s on local_paging"},
	{Name: "kernel.faults_per_txn", Unit: "count", Better: "lower", Moves: "ro_txn_p50_us, txn_per_s on local_paging"},
	{Name: "kernel.evictions_per_txn", Unit: "count", Better: "lower", Moves: "txn_per_s on local_paging"},
	{Name: "kernel.steals_per_txn", Unit: "count", Better: "lower", Moves: "rw_txn_p50_us, txn_tail_us on local_paging"},
	{Name: "kernel.pin_stalls", Unit: "count", Better: "lower", Moves: "txn_tail_us on local_paging"},
	{Name: "kernel.read_hit_ns", Unit: "ns", Better: "lower", Moves: "txn_per_s on local_hot"},
	{Name: "kernel.read_miss_us", Unit: "us", Better: "lower", Moves: "txn_per_s on local_paging"},

	{Name: "recovery.log_update_ns", Unit: "ns", Better: "lower", Moves: "txn_per_s on local_hot"},
	{Name: "recovery.checkpoints", Unit: "count", Better: "lower", Moves: "txn_tail_us on local_commit"},
	{Name: "recovery.reclaims", Unit: "count", Better: "lower", Moves: "txn_tail_us on local_commit"},
	{Name: "recovery.restart_records", Unit: "count", Better: "lower", Moves: "recover_ms"},
	{Name: "recovery.restart_passes", Unit: "count", Better: "lower", Moves: "recover_ms"},

	{Name: "wal.records_per_txn", Unit: "count", Better: "lower", Moves: "txn_per_s on local_hot"},
	{Name: "wal.bytes_per_txn", Unit: "B", Better: "lower", Moves: "recover_ms; txn_tail_us on local_commit"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "recover_ms"},
	{Name: "wal.forces_per_txn", Unit: "count", Better: "lower", Moves: "txn_p50_us, txn_tail_us on local_commit"},
	{Name: "wal.group_size_mean", Unit: "count", Better: "higher", Moves: "txn_p50_us, txn_tail_us on local_commit"},
	{Name: "wal.force_waiters_mean", Unit: "count", Better: "lower", Moves: "txn_tail_us on local_commit"},
	{Name: "wal.force_ms_mean", Unit: "ms", Better: "lower", Moves: "txn_p50_us on local_commit"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower", Moves: "txn_per_s on local_hot"},
	{Name: "wal.append_force_us", Unit: "us", Better: "lower", Moves: "txn_per_s on local_hot"},

	{Name: "disk.reads_per_txn", Unit: "count", Better: "lower", Moves: "txn_p50_us on local_paging"},
	{Name: "disk.writes_per_txn", Unit: "count", Better: "lower", Moves: "txn_p50_us on local_commit, local_paging"},
	{Name: "disk.seq_share", Unit: "ratio", Better: "higher", Moves: "txn_p50_us on local_commit"},
	{Name: "disk.device_ms_per_txn", Unit: "ms", Better: "lower", Moves: "txn_p50_us on local_commit, local_paging"},
	{Name: "disk.busy_share", Unit: "ratio", Better: "lower", Moves: "txn_tail_us on local_commit, local_paging"},

	{Name: "txn.readonly_share", Unit: "ratio", Better: "higher", Moves: "ro_txn_p50_us on local_paging"},
	{Name: "txn.commit_children_mean", Unit: "count", Better: "lower", Moves: "txn_p50_us on dist_2pc, dist_paxos"},
	{Name: "txn.aborts_per_txn", Unit: "count", Better: "lower", Moves: "must be 0"},
	{Name: "txn.round_retransmits", Unit: "count", Better: "lower", Moves: "txn_tail_us on dist_2pc, dist_paxos"},
	{Name: "txn.begin_end_ro_ns", Unit: "ns", Better: "lower", Moves: "txn_per_s on local_hot"},

	{Name: "acp.accepts_per_txn", Unit: "count", Better: "lower", Moves: "txn_p50_us, txn_per_s on dist_paxos only"},
	{Name: "acp.decides_per_txn", Unit: "count", Better: "lower", Moves: "txn_p50_us, txn_per_s on dist_paxos only"},
	{Name: "acp.decide_noquorum", Unit: "count", Better: "lower", Moves: "must be 0"},

	{Name: "comm.msgs_per_txn", Unit: "count", Better: "lower", Moves: "txn_p50_us, txn_per_s on dist_2pc, dist_paxos"},
	{Name: "comm.bytes_per_txn", Unit: "B", Better: "lower", Moves: "txn_per_s on dist_2pc, dist_paxos"},
	{Name: "comm.send_us", Unit: "us", Better: "lower", Moves: "txn_tail_us on dist_2pc, dist_paxos"},
	{Name: "comm.retransmits", Unit: "count", Better: "lower", Moves: "txn_tail_us on dist_2pc, dist_paxos"},
	{Name: "comm.call_rtt_us", Unit: "us", Better: "lower", Moves: "txn_p50_us on dist_2pc, dist_paxos"},

	{Name: "nameserver.cache_hit_share", Unit: "ratio", Better: "higher", Moves: "txn_per_s on dist_2pc, dist_paxos; must be 1"},
	{Name: "nameserver.broadcasts", Unit: "count", Better: "lower", Moves: "must be 0 in the window"},
	{Name: "nameserver.lookup_cached_ns", Unit: "ns", Better: "lower", Moves: "txn_per_s on dist_2pc, dist_paxos"},

	{Name: "stats.data_server_calls_per_txn", Unit: "count", Better: "lower", Moves: "Table 5-1 primitive; a commit-path change names it beforehand"},
	{Name: "stats.inter_node_calls_per_txn", Unit: "count", Better: "lower", Moves: "Table 5-1 primitive"},
	{Name: "stats.datagrams_per_txn", Unit: "count", Better: "lower", Moves: "Table 5-1 primitive"},
	{Name: "stats.small_msgs_per_txn", Unit: "count", Better: "lower", Moves: "Table 5-1 primitive"},
	{Name: "stats.large_msgs_per_txn", Unit: "count", Better: "lower", Moves: "Table 5-1 primitive"},
	{Name: "stats.page_ios_per_txn", Unit: "count", Better: "lower", Moves: "Table 5-1 primitive"},
	{Name: "stats.stable_writes_per_txn", Unit: "count", Better: "lower", Moves: "Table 5-1 primitive"},

	{Name: "runtime.allocs_per_txn", Unit: "count", Better: "lower", Moves: "txn_tail_us, rss_mb on local_hot"},
	{Name: "runtime.alloc_bytes_per_txn", Unit: "B", Better: "lower", Moves: "txn_tail_us, rss_mb on local_hot"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "txn_tail_us on local_hot"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "txn_tail_us on local_hot"},

	{Name: "ledger.attributed_share", Unit: "ratio", Better: "higher", Moves: "the Table 5-4 predicted/elapsed column"},
	{Name: "ledger.residual_us", Unit: "us", Better: "lower", Moves: "traced mean transaction time no layer price explains"},
	{Name: "ledger.core_us", Unit: "us", Better: "lower", Moves: "calls x (core.call_noop_ns - srvlib.invoke_noop_ns)"},
	{Name: "ledger.srvlib_us", Unit: "us", Better: "lower", Moves: "calls x srvlib.invoke_noop_ns"},
	{Name: "ledger.lock_us", Unit: "us", Better: "lower", Moves: "grants x lock.lock_release_ns"},
	{Name: "ledger.kernel_us", Unit: "us", Better: "lower", Moves: "page references x hit price + faults x miss price"},
	{Name: "ledger.recovery_us", Unit: "us", Better: "lower", Moves: "updates x (recovery.log_update_ns - wal.append_ns)"},
	{Name: "ledger.wal_us", Unit: "us", Better: "lower", Moves: "records x wal.append_ns + forces x force price"},
	{Name: "ledger.disk_us", Unit: "us", Better: "lower", Moves: "disk.device_ms_per_txn"},
	{Name: "ledger.txn_us", Unit: "us", Better: "lower", Moves: "txn.begin_end_ro_ns"},
	{Name: "ledger.comm_us", Unit: "us", Better: "lower", Moves: "session calls x comm.call_rtt_us + datagrams x comm.send_us"},
	{Name: "ledger.nameserver_us", Unit: "us", Better: "lower", Moves: "lookups x nameserver.lookup_cached_ns"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints: exactly these
// four keys, as the driver contract prescribes.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metricSet collects raw numbers by name while a run computes them.
type metricSet map[string]float64

// emit joins the collected numbers with their definitions. A metric the
// run did not compute, or computed as NaN or Inf, is a bug in the
// benchmark and fails the run rather than silently reading 0.
func (m metricSet) emit(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// ratio is a/b, or 0 when the base is 0 (a count over zero transactions).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of an ascending slice by the nearest-rank
// rule; failed counts extra samples that rank above every measured one and
// read as worst.
func quantile(sorted []int64, failed int, worst int64, q float64) int64 {
	n := len(sorted) + failed
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		return worst
	}
	return sorted[i]
}

// tailMean is the mean of the slowest fiftieth of the samples: the
// expected latency of a transaction caught in the worst 2%. It brackets
// the 99th percentile and, unlike it, moves smoothly when the share of
// slow transactions moves, which a percentile sitting on a cliff in the
// distribution does not. failed samples rank above all and read as worst.
func tailMean(sorted []int64, failed int, worst int64) float64 {
	n := len(sorted) + failed
	if n == 0 {
		return 0
	}
	k := (n + 49) / 50
	sum := float64(min(k, failed)) * float64(worst)
	for _, v := range sorted[len(sorted)-max(k-failed, 0):] {
		sum += float64(v)
	}
	return sum / float64(k)
}

// midMean is the mean of the middle half of an ascending slice. For a
// smooth distribution it is the median; for latencies that come in steps
// of one device access it moves by a fraction of a step, where the median
// jumps a whole one, when the split between two steps moves by a percent.
func midMean(sorted []int64) float64 {
	mid := sorted[len(sorted)/4 : max(len(sorted)*3/4, len(sorted)/4+1)]
	var sum float64
	for _, v := range mid {
		sum += float64(v)
	}
	return sum / float64(len(mid))
}

// quartiles mirrors Python's statistics.quantiles(values, n=4), which the
// driver uses for its spread: the exclusive method.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

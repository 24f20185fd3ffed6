// Command tabsbench runs the repo's measuring and torture harnesses that
// the top-level benchmark/ does not cover, one subcommand each:
//
//	tabsbench tables                   # the paper's Section 5 tables (5-1..5-5) + ablations
//	tabsbench tables -table 5-4 -iters 30 -metrics-json m.json
//	tabsbench torture -seed 42 -profile chaos           # deterministic fault-injection run
//	tabsbench torture -seed 42 -profile partition -commit-protocol paxos
//	tabsbench torture -seed 42 -profile migrate         # online-migration torture
//	tabsbench coordkill -commit-protocol paxos -phase decided
//	tabsbench sharding -nodes 8        # 1->N scale-out sweep -> BENCH_sharding.json
//	tabsbench migrate                  # migrate a shard under live load -> BENCH_migration.json
//
// Throughput and latency of the commit path itself (hot path, group
// commit, 2pc vs paxos) are measured by `go run ./benchmark`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"tabs/internal/bench"
	"tabs/internal/fault"
	"tabs/internal/trace"
)

// subcommands declare their flags on fs and return what to run once the
// command line has been parsed into them.
var subcommands = map[string]func(fs *flag.FlagSet) func() error{
	"tables":    tables,
	"torture":   torture,
	"coordkill": coordkill,
	"sharding":  sharding,
	"migrate":   migrate,
}

func main() {
	if len(os.Args) < 2 || subcommands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: tabsbench tables|torture|coordkill|sharding|migrate [flags]   (-h after a subcommand lists its flags)")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("tabsbench "+os.Args[1], flag.ExitOnError)
	run := subcommands[os.Args[1]](fs)
	_ = fs.Parse(os.Args[2:]) // ExitOnError: a bad flag has already exited
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tabsbench:", err)
		os.Exit(1)
	}
}

// writeJSON records a result as indented JSON: to path, to stdout for "-",
// nowhere for an empty path.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(append(blob, '\n'))
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
}

// torture drives a deterministic fault-injection harness and reports the
// outcome; a failing run exits nonzero with the seed and fault trace so the
// exact schedule reproduces.
func torture(fs *flag.FlagSet) func() error {
	seed := fs.Int64("seed", 1, "fault plan and workload schedule seed")
	profile := fs.String("profile", "chaos", "fault profile: "+strings.Join(append(fault.ProfileNames(), "migrate"), ", "))
	txns := fs.Int("txns", 200, "workload transactions (ignored by -profile migrate)")
	protocol := fs.String("commit-protocol", "2pc", "commit protocol: 2pc or paxos (ignored by -profile migrate)")
	return func() error {
		fmt.Fprintf(os.Stderr, "torture: seed=%d profile=%s txns=%d protocol=%s\n", *seed, *profile, *txns, *protocol)
		start := time.Now()
		if *profile == "migrate" {
			// Shards migrate between data nodes, data nodes crash and reboot,
			// and every worker write must commit (at worst after retries).
			rep, err := fault.RunMigrate(fault.MigrateOptions{Seed: *seed, Logf: progress})
			if rep != nil {
				fmt.Println(rep)
			}
			return verdict(err, start)
		}
		rep, err := fault.RunTorture(fault.TortureOptions{
			Seed: *seed, Nodes: 3, Txns: *txns, Profile: *profile, CommitProtocol: *protocol, Logf: progress,
		})
		if rep != nil {
			fmt.Println(rep)
		}
		return verdict(err, start)
	}
}

func verdict(err error, start time.Time) error {
	if err == nil {
		fmt.Printf("all invariants held in %s\n", time.Since(start).Round(time.Millisecond))
	}
	return err
}

// coordkill kills the coordinator of a fully prepared distributed
// transaction at the decision point, for good, and reports whether the
// survivors resolve it: 2pc blocks, paxos does not.
func coordkill(fs *flag.FlagSet) func() error {
	protocol := fs.String("commit-protocol", "2pc", "commit protocol: 2pc or paxos")
	phase := fs.String("phase", "decide", "where the coordinator dies: decide (before the decision exists) or decided (after it is durable)")
	wait := fs.Duration("resolve-wait", 5*time.Second, "how long the survivors get to resolve the transaction")
	return func() error {
		rep, err := fault.RunCoordKill(fault.CoordKillOptions{CommitProtocol: *protocol, KillPhase: *phase, ResolveWait: *wait, Logf: progress})
		if rep != nil {
			fmt.Println(rep)
		}
		return err
	}
}

// sharding sweeps the sharded-namespace scale-out benchmark.
func sharding(fs *flag.FlagSet) func() error {
	nodes := fs.Int("nodes", 8, "sweep 1, 2, 4, ... up to this many nodes, one shard each")
	ratio := fs.Float64("multi-shard-ratio", 0.1, "fraction of transactions touching a second shard")
	keys := fs.Uint64("keys", 1<<20, "global key-space size the sweep partitions")
	txns := fs.Int("txns", 100, "transactions per worker (4 workers homed on each node)")
	runs := fs.Int("runs", 3, "independent runs per sweep point; the median is reported")
	jsonPath := fs.String("json", "BENCH_sharding.json", "where to write the sweep as JSON ('' to skip)")
	return func() error {
		fmt.Fprintf(os.Stderr, "sweeping sharded scale-out up to %d nodes (%d keys, ratio %g)...\n", *nodes, *keys, *ratio)
		res, err := bench.MeasureSharding(*nodes, *keys, 4, *txns, *runs, *ratio)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatSharding(res))
		return writeJSON(*jsonPath, res)
	}
}

// migrate runs the migrate-under-load benchmark: the throughput dip and
// the redirect latency of one shard move.
func migrate(fs *flag.FlagSet) func() error {
	phase := fs.Duration("phase", 600*time.Millisecond, "baseline and recovery workload window around the move")
	jsonPath := fs.String("json", "BENCH_migration.json", "where to write the result as JSON ('' to skip)")
	return func() error {
		fmt.Fprintf(os.Stderr, "migrating a shard under live load (3 nodes, 4 workers, %s windows)...\n", *phase)
		res, err := bench.MeasureMigration(3, 0, 4, *phase)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatMigration(res))
		return writeJSON(*jsonPath, res)
	}
}

// dumpMetrics writes every cluster node's trace.Export (metrics only) as
// a JSON array, sorted by node name for stable output.
func dumpMetrics(env *bench.Env, path string) error {
	exports := make([]trace.Export, 0, 4)
	for _, n := range env.Cluster.Nodes() {
		if tr := n.Tracer(); tr != nil {
			exports = append(exports, tr.Export(false))
		}
	}
	sort.Slice(exports, func(i, j int) bool { return exports[i].Node < exports[j].Node })
	return writeJSON(path, exports)
}

// tables regenerates the tables of the paper's Section 5 evaluation:
// primitive operation times (Table 5-1), pre-commit and commit primitive
// counts (Tables 5-2, 5-3), benchmark times with the Improved Architecture
// and New Primitive Times projections (Table 5-4), and the achievable
// primitive parameter set (Table 5-5).
func tables(fs *flag.FlagSet) func() error {
	table := fs.String("table", "all", "which table to regenerate: 5-1, 5-2, 5-3, 5-4, 5-5, ablations, or all")
	iters := fs.Int("iters", 10, "measured transactions per benchmark")
	metricsJSON := fs.String("metrics-json", "", "after the benchmarks, write per-node trace-layer metrics as JSON to this file ('-' for stdout)")
	return func() error {
		needMicro := *table == "all" || *table == "5-1"
		needBench := *table == "all" || *table == "5-2" || *table == "5-3" || *table == "5-4"

		var micro *bench.MicroResults
		if needMicro {
			fmt.Fprintln(os.Stderr, "measuring primitive micro-benchmarks...")
			var err error
			micro, err = bench.MeasureMicro()
			if err != nil {
				return err
			}
		}

		var results []bench.Result
		if needBench {
			fmt.Fprintln(os.Stderr, "running the fourteen Section 5 benchmarks (3 nodes)...")
			env, err := bench.NewEnv(3)
			if err != nil {
				return err
			}
			defer env.Close()
			results, err = env.MeasureAll(*iters)
			if err != nil {
				return err
			}
			if *metricsJSON != "" {
				if err := dumpMetrics(env, *metricsJSON); err != nil {
					return fmt.Errorf("writing metrics JSON: %w", err)
				}
			}
		} else if *metricsJSON != "" {
			return fmt.Errorf("-metrics-json needs a benchmark run (table %q runs none)", *table)
		}

		ablations := func() (string, error) {
			fmt.Fprintln(os.Stderr, "running ablation studies...")
			lg, err := bench.MeasureLoggingAblation(200)
			if err != nil {
				return "", err
			}
			lk, err := bench.MeasureLockingAblation(6)
			if err != nil {
				return "", err
			}
			return bench.FormatAblations(lg, lk), nil
		}
		sections := []struct {
			name   string
			render func() (string, error)
		}{
			{"5-1", func() (string, error) { return bench.Table51(micro), nil }},
			{"5-2", func() (string, error) { return bench.Table52(results), nil }},
			{"5-3", func() (string, error) { return bench.Table53(results), nil }},
			{"5-4", func() (string, error) { return bench.Table54(results), nil }},
			{"5-5", func() (string, error) { return bench.Table55(), nil }},
			{"ablations", ablations},
			{"all", func() (string, error) { return bench.FormatWallSummary(micro), nil }},
		}
		printed := false
		for _, sec := range sections {
			if *table != sec.name && *table != "all" {
				continue
			}
			out, err := sec.render()
			if err != nil {
				return err
			}
			if printed {
				fmt.Println()
			}
			fmt.Print(out)
			printed = true
		}
		if !printed {
			return fmt.Errorf("unknown table %q", *table)
		}
		return nil
	}
}

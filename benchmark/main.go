// Command benchmark is the repository's one benchmark: five named
// workloads on the in-process cluster, end-to-end commit metrics, and a
// Table 5-4-style per-layer ledger priced from outside the program. See
// README.md for what each metric means and how they interact.
//
//	go run ./benchmark                      every workload, both runs, each in its own process
//	go run ./benchmark -workload local_hot  one end-to-end run (add -trace 1 for the per-layer run)
//	go run ./benchmark -repeat 10           ten end-to-end sets on seeds seed..seed+9, with spreads
//	go run ./benchmark -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all five, each in a child process)")
		seed    = flag.Int64("seed", 1, "seed of key choice and arrival jitter")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the layer probes")
		repeat  = flag.Int("repeat", 0, "run this many end-to-end sets on consecutive seeds and report medians, quartiles and spreads")
		compare = flag.Bool("compare", false, "compare two set files: benchmark -compare a.json b.json")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for result, set and span files")
	)
	flag.Parse()
	if err := dispatch(*name, *seed, *seconds, *trace, *repeat, *compare, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(name string, seed int64, seconds float64, trace, repeat int, compare bool, outDir string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	window := time.Duration(seconds * float64(time.Second))
	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two set files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case name != "":
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		rep, err := run(runConfig{w: w, seed: seed, window: window, trace: trace != 0, outDir: outDir, log: os.Stdout, sizes: fullSizes})
		if err != nil {
			return err
		}
		// The driver reads the last line of standard output.
		line, err := json.Marshal(rep.Result)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !rep.Result.Correct {
			return fmt.Errorf("%s: correctness violated: %s", name, rep.Error)
		}
		return nil
	case repeat > 0:
		set := &setFile{Env: readEnvironment(seed, window, 0)}
		for i := 0; i < repeat; i++ {
			if err := set.runAll(seed+int64(i), seconds, []int{0}, outDir); err != nil {
				return err
			}
		}
		set.summarize(os.Stdout)
		return set.write(filepath.Join(outDir, "repeat.json"))
	default:
		set := &setFile{Env: readEnvironment(seed, window, 0)}
		if err := set.runAll(seed, seconds, []int{0, 1}, outDir); err != nil {
			return err
		}
		return set.write(filepath.Join(outDir, "result.json"))
	}
}

// setFile is one or more runs of every workload: what -repeat and the
// no-argument mode write and -compare reads.
type setFile struct {
	Env  environment `json:"env"`
	Runs []setRun    `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// runAll runs every workload in a child process of its own, so that heap,
// GC state and rss_mb are per workload.
func (s *setFile) runAll(seed int64, seconds float64, traces []int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		for _, trace := range traces {
			var out bytes.Buffer
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
			cmd.Stdout = io.MultiWriter(os.Stdout, &out)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d, seed %d): %w", w.name, trace, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			run := setRun{Workload: w.name, Trace: trace, Seed: seed}
			if err := json.Unmarshal(lines[len(lines)-1], &run.Result); err != nil {
				return fmt.Errorf("%s: last line is not a result: %w", w.name, err)
			}
			s.Runs = append(s.Runs, run)
			fmt.Println()
		}
	}
	return nil
}

func (s *setFile) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return os.WriteFile(path, data, 0o644)
}

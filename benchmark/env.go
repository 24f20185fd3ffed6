package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// environment heads every output: a number means nothing without the
// machine, the commit and the settings it was measured with.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	SleepMs    float64 `json:"sleep_1ms_median_ms"` // the timer floor the device model stands on
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Workload   string  `json:"workload,omitempty"`
	Model      string  `json:"model,omitempty"`
	Load       string  `json:"load,omitempty"`
}

func readEnvironment(seed int64, window, warmup time.Duration) environment {
	return environment{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		SleepMs:    sleepFloor(),
		Seed:       seed,
		WindowS:    window.Seconds(),
		WarmupS:    warmup.Seconds(),
	}
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "# commit %s  %s  GOMAXPROCS %d  nproc %d  kernel %s\n", e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Kernel)
	fmt.Fprintf(w, "# time.Sleep(1ms) median %.3f ms  seed %d  window %.1f s  warm-up %.1f s\n", e.SleepMs, e.Seed, e.WindowS, e.WarmupS)
	if e.Workload != "" {
		fmt.Fprintf(w, "# workload %s: %s\n# model: %s\n", e.Workload, e.Load, e.Model)
	}
}

// sleepFloor is the median real duration of time.Sleep(1ms).
func sleepFloor() float64 {
	samples := make([]float64, 21)
	for i := range samples {
		start := time.Now()
		time.Sleep(time.Millisecond)
		samples[i] = float64(time.Since(start)) / 1e6
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

// gitCommit reads the checked-out commit without running git; a checkout
// that is not a repository reads "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for ; ; dir = filepath.Dir(dir) {
		head := firstLine(filepath.Join(dir, ".git", "HEAD"))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			head = firstLine(filepath.Join(dir, ".git", ref))
		}
		if head != "" {
			return head
		}
		if dir == filepath.Dir(dir) {
			return "unknown"
		}
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

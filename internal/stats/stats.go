// Package stats instruments the primitive operations of the TABS
// performance methodology (paper §5.1).
//
// Every component records the primitive operations it performs into a
// Recorder. Counts are kept in two scopes — pre-commit and commit — because
// the paper reports them separately (Tables 5-2 and 5-3) and because the
// commit phase of a distributed transaction executes partly in parallel,
// which the paper models with fractional datagram counts on the longest
// path. The benchmark harness snapshots counters around each benchmark and
// multiplies them by a simclock.CostModel to regenerate the "System Time
// Predicted by Primitives" column of Table 5-4.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tabs/internal/simclock"
)

// Phase distinguishes the two accounting scopes of the paper's analysis.
type Phase int

const (
	// PreCommit covers everything from BeginTransaction until the commit
	// protocol starts (Table 5-2).
	PreCommit Phase = iota
	// Commit covers the commit (or abort) protocol itself (Table 5-3).
	Commit
	numPhases
)

// String returns a short label for the phase.
func (p Phase) String() string {
	switch p {
	case PreCommit:
		return "pre-commit"
	case Commit:
		return "commit"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Counts holds fractional counts of each primitive operation. Fractional
// values appear only in commit-phase accounting, where the paper charges
// one-half datagram for a send that proceeds in parallel with another.
type Counts [simclock.NumPrimitives]float64

// Add returns the element-wise sum of c and d.
func (c Counts) Add(d Counts) Counts {
	var out Counts
	for i := range c {
		out[i] = c[i] + d[i]
	}
	return out
}

// Sub returns the element-wise difference c - d.
func (c Counts) Sub(d Counts) Counts {
	var out Counts
	for i := range c {
		out[i] = c[i] - d[i]
	}
	return out
}

// Scale returns c with every element multiplied by f.
func (c Counts) Scale(f float64) Counts {
	var out Counts
	for i := range c {
		out[i] = c[i] * f
	}
	return out
}

// Predict returns the predicted latency in milliseconds under the given
// cost model: the sum of the primitive counts weighted by the primitive
// times, exactly as in the paper's Table 5-4 first column.
func (c Counts) Predict(m *simclock.CostModel) float64 {
	var ms float64
	for i := range c {
		ms += c[i] * m.Times[i]
	}
	return ms
}

// IsZero reports whether every count is zero.
func (c Counts) IsZero() bool {
	for _, v := range c {
		if v != 0 {
			return false
		}
	}
	return true
}

// String formats the non-zero counts compactly, in primitive order.
func (c Counts) String() string {
	var b strings.Builder
	for i, v := range c {
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%g", simclock.Primitive(i), v)
	}
	if b.Len() == 0 {
		return "(none)"
	}
	return b.String()
}

// Recorder accumulates primitive counts per phase and is safe for
// concurrent use.
type Recorder struct {
	mu     sync.Mutex
	counts [numPhases]Counts
	phase  Phase
}

// NewRecorder returns a Recorder in the PreCommit phase.
func NewRecorder() *Recorder { return &Recorder{} }

// SetPhase switches the accounting scope for subsequent Record calls.
func (r *Recorder) SetPhase(p Phase) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phase = p
}

// Phase returns the current accounting scope.
func (r *Recorder) Phase() Phase {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase
}

// Record notes one execution of primitive p in the current phase.
func (r *Recorder) Record(p simclock.Primitive) { r.RecordN(p, 1) }

// RecordN notes n executions of primitive p (n may be fractional; the paper
// charges half datagrams for parallel sends during commit).
func (r *Recorder) RecordN(p simclock.Primitive, n float64) {
	r.mu.Lock()
	r.counts[r.phase][p] += n
	r.mu.Unlock()
}

// Snapshot returns the accumulated counts for phase p.
func (r *Recorder) Snapshot(p Phase) Counts {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[p]
}

// Total returns pre-commit plus commit counts.
func (r *Recorder) Total() Counts {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[PreCommit].Add(r.counts[Commit])
}

// Reset zeroes all counts and returns the recorder to the PreCommit phase.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.counts {
		r.counts[i] = Counts{}
	}
	r.phase = PreCommit
}

// Registry aggregates the recorders of several components (or nodes) so a
// benchmark can snapshot the whole system at once.
type Registry struct {
	mu        sync.Mutex
	recorders map[string]*Recorder
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{recorders: make(map[string]*Recorder)}
}

// Recorder returns the recorder registered under name, creating it if
// needed.
func (g *Registry) Recorder(name string) *Recorder {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.recorders[name]
	if !ok {
		r = NewRecorder()
		g.recorders[name] = r
	}
	return r
}

// Names returns the registered recorder names, sorted.
func (g *Registry) Names() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.recorders))
	for n := range g.recorders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalCounts sums the counts for phase p across every recorder.
func (g *Registry) TotalCounts(p Phase) Counts {
	g.mu.Lock()
	defer g.mu.Unlock()
	var total Counts
	for _, r := range g.recorders {
		total = total.Add(r.Snapshot(p))
	}
	return total
}

// NamedCounts returns each recorder's counts for phase p, keyed by
// recorder name. The benchmark projections use this to drop exactly the
// messages a merged-component architecture would eliminate (paper §5.3).
func (g *Registry) NamedCounts(p Phase) map[string]Counts {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]Counts, len(g.recorders))
	for n, r := range g.recorders {
		out[n] = r.Snapshot(p)
	}
	return out
}

// SetPhaseAll switches every recorder to phase p.
func (g *Registry) SetPhaseAll(p Phase) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.recorders {
		r.SetPhase(p)
	}
}

// ResetAll resets every recorder.
func (g *Registry) ResetAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.recorders {
		r.Reset()
	}
}

package main

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// window is what one measured window saw from the client's side.
type window struct {
	elapsed time.Duration
	// ro and rw are begin-to-commit-acknowledged latencies in nanoseconds
	// of committed read-only and update transactions (open loop: from the
	// time the transaction was due).
	ro, rw []int64
	failed int64 // aborted + errored + violated + shed
	gets   int64 // data server calls of committed transactions
	sets   int64
	// Open loop only.
	late        []int64 // how late the generator issued each arrival
	inflightMax int
	// Traced windows only.
	spans spanTotals
	kept  []txnSpan
	// Closed loop only: cuts[j] is the index in rw of the first sample that
	// ended after slice j; slices holds the merged per-slice statistics.
	cuts   []int
	slices []slice
}

// sliceLen divides a closed-loop window into slices, each long enough for
// thousands of samples on the processor-bound workloads and short enough
// that a burst of interference from the host spoils only a few of them.
const sliceLen = 250 * time.Millisecond

// slice is one sliceLen of a closed-loop window, all workers together.
type slice struct {
	perS float64 // committed update transactions per second
	p50  int64   // median of their latencies, nanoseconds
	tail float64 // mean of the slowest 2%, nanoseconds
}

func (w *window) committed() int64 { return int64(len(w.ro) + len(w.rw)) }
func (w *window) attempted() int64 { return w.committed() + w.failed }

func (w *window) add(p *plan, out outcome, lat time.Duration) {
	if out != committed {
		w.failed++
		return
	}
	if p.slot < 0 {
		w.ro = append(w.ro, int64(lat))
	} else {
		w.rw = append(w.rw, int64(lat))
	}
	for i := 0; i < p.n; i++ {
		if p.ops[i].set {
			w.sets++
		} else {
			w.gets++
		}
	}
}

func (w *window) merge(o *window) {
	w.ro = append(w.ro, o.ro...)
	w.rw = append(w.rw, o.rw...)
	w.failed += o.failed
	w.gets += o.gets
	w.sets += o.sets
	w.spans.add(&o.spans)
	w.kept = append(w.kept, o.kept...)
}

// latencies returns every committed latency, ascending.
func (w *window) latencies() []int64 {
	all := make([]int64, 0, len(w.ro)+len(w.rw))
	all = append(append(all, w.ro...), w.rw...)
	slices.Sort(all)
	return all
}

// us is the q-quantile of committed latencies in microseconds; a failed or
// shed transaction ranks above every latency and reads as the whole window.
func (w *window) us(sorted []int64, q float64) float64 {
	return float64(quantile(sorted, int(w.failed), int64(w.elapsed), q)) / 1e3
}

// sampleCap pre-sizes a worker's update latencies (local_hot commits about
// 450k a worker in a 10 s window) so that growing the slice does not stall
// the worker inside the window. The capacity is resident, 8 MB a worker:
// it is the larger part of what the benchmark itself adds to rss_mb.
const sampleCap = 1 << 20

// closedLoop runs every worker as a closed-loop client for d: the next
// transaction starts when the previous one is acknowledged. With traced
// set each transaction also records a span per layer boundary.
func (fx *fixture) closedLoop(d time.Duration, traced bool) *window {
	parts := make([]*window, len(fx.workers))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, wk := range fx.workers {
		part := &window{rw: make([]int64, 0, sampleCap)}
		parts[i] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p plan
			var sp *txnSpan
			if traced {
				sp = &txnSpan{}
			}
			for {
				fx.w.next(wk, &p, -1)
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				out := fx.runTxn(wk, &p, sp)
				lat := time.Since(t0)
				for k := int((t0.Sub(start) + lat) / sliceLen); len(part.cuts) < k; {
					part.cuts = append(part.cuts, len(part.rw))
				}
				part.add(&p, out, lat)
				if sp != nil && out == committed {
					part.spans.note(sp, &p)
					if len(part.kept) < keptSpans {
						part.kept = append(part.kept, *sp)
					}
				}
			}
		}()
	}
	wg.Wait()
	total := &window{elapsed: time.Since(start)}
	n := int(d / sliceLen)
	for _, part := range parts {
		for len(part.cuts) < n { // slices the worker committed nothing after
			part.cuts = append(part.cuts, len(part.rw))
		}
	}
	for j := 0; j < n; j++ {
		var lats []int64
		for _, part := range parts {
			lo := 0
			if j > 0 {
				lo = part.cuts[j-1]
			}
			lats = append(lats, part.rw[lo:part.cuts[j]]...)
		}
		slices.Sort(lats)
		total.slices = append(total.slices, slice{
			perS: float64(len(lats)) / sliceLen.Seconds(),
			p50:  quantile(lats, 0, 0, 0.50),
			tail: tailMean(lats, 0, 0),
		})
	}
	for _, part := range parts {
		total.merge(part)
	}
	return total
}

// quiet is the mean of the best tenth of a window's slices under key.
func (w *window) quiet(key func(slice) float64, higherIsBetter bool) float64 {
	vals := make([]float64, len(w.slices))
	for i, s := range w.slices {
		vals[i] = key(s)
	}
	return bestMean(vals, 10, higherIsBetter)
}

// bestMean is the mean of the best 1/part of vals (at least one): what
// processor-bound work costs when the host leaves it alone. On a shared
// machine interference only ever slows a repeat down, so the best repeats
// agree from run to run where their mean or median does not.
func bestMean(vals []float64, part int, higherIsBetter bool) float64 {
	vals = slices.Clone(vals)
	slices.Sort(vals)
	if higherIsBetter {
		slices.Reverse(vals)
	}
	best := vals[:max(1, len(vals)/part)]
	var sum float64
	for _, v := range best {
		sum += v
	}
	return sum / float64(len(best))
}

// openLoop issues transactions on a seeded Poisson schedule at
// fx.w.rate per second for d, whatever the system's speed. One generator
// goroutine wakes about every millisecond (tick), issues every arrival
// that is due, and each transaction then runs on a goroutine of its own,
// parked on modelled device time rather than on a core. Latency counts
// from the due time, so the wait a stall imposes on later arrivals is in
// the numbers; an arrival that finds no free slot is shed.
func (fx *fixture) openLoop(d time.Duration, tick func(), traced bool) *window {
	wk := fx.workers[0]
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		total    = &window{}
		inflight int
	)
	free := make(chan int, fx.w.slots)
	for _, slot := range wk.rng.Perm(fx.w.slots) {
		free <- slot
	}
	start := time.Now()
	sched := newSchedule(wk.rng, fx.w.rate)
	for {
		now := time.Since(start)
		if now >= d {
			break
		}
		for due := sched.peek(); due <= now; due = sched.peek() {
			sched.pop()
			total.late = append(total.late, int64(now-due))
			var slot int
			select {
			case slot = <-free:
			default:
				mu.Lock()
				total.failed++
				mu.Unlock()
				continue
			}
			p := new(plan)
			fx.w.next(wk, p, slot)
			mu.Lock()
			inflight++
			total.inflightMax = max(total.inflightMax, inflight)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sp *txnSpan
				if traced {
					sp = &txnSpan{}
				}
				out := fx.runTxn(wk, p, sp)
				lat := time.Since(start) - due
				mu.Lock()
				total.add(p, out, lat)
				if sp != nil && out == committed {
					total.spans.note(sp, p)
					if len(total.kept) < keptSpans {
						total.kept = append(total.kept, *sp)
					}
				}
				inflight--
				mu.Unlock()
				free <- slot
			}()
		}
		tick()
	}
	wg.Wait() // drain: every issued transaction is acknowledged or failed
	total.elapsed = d
	return total
}

// schedule is a seeded Poisson arrival process: exponential gaps with
// mean 1/rate. The same seed gives the same due times.
type schedule struct {
	rng  *rand.Rand
	mean float64 // nanoseconds between arrivals
	next time.Duration
}

func newSchedule(rng *rand.Rand, rate float64) *schedule {
	s := &schedule{rng: rng, mean: 1e9 / rate}
	s.pop()
	return s
}

func (s *schedule) peek() time.Duration { return s.next }

func (s *schedule) pop() {
	s.next += time.Duration(math.Round(s.rng.ExpFloat64() * s.mean))
}

// generatorTick is the production wait between generator passes.
func generatorTick() {
	time.Sleep(time.Millisecond)
}

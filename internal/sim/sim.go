// Package sim provides a deterministic discrete-event simulation kernel.
//
// All unap2p experiments run on this kernel: a single goroutine drains a
// time-ordered event heap, so a run is reproducible bit-for-bit given the
// same seed. Parallelism in unap2p happens *across* simulator instances
// (parameter sweeps), never inside one.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in milliseconds since the start of the run.
type Time float64

// Duration is a span of simulated time in milliseconds.
type Duration = Time

// Common durations, in milliseconds.
const (
	Millisecond Duration = 1
	Second      Duration = 1000
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// Forever is a time later than any event a simulation will schedule.
const Forever Time = Time(math.MaxFloat64)

// Seconds reports t as seconds.
func (t Time) Seconds() float64 { return float64(t) / 1000 }

func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)) }

// Event is a pending callback in the kernel's queue. Events are pooled:
// once fired or cancelled, the struct returns to the kernel's free list
// and is reused by the next schedule, so the steady-state hot loop
// allocates nothing. gen counts reuses; an outstanding Timer remembers
// the generation it was issued for and goes inert when they diverge.
type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	fn  func()
	idx int
	gen uint32
	// daemon marks housekeeping events (telemetry probe ticks) that must
	// not keep an unbounded Run alive on their own: when only daemon
	// events remain and the horizon is Forever, Run returns instead of
	// ticking forever. See Kernel.AtDaemon.
	daemon bool
	// next links the kernel's free list while the event is recycled.
	next *event
}

// eventHeap is a binary min-heap of pending events ordered by (at, seq).
// It is typed rather than driven through container/heap, whose interface
// dispatch on every comparison and swap dominated the kernel's per-event
// cost. Sifts move a hole instead of swapping, so each level writes one
// slot and one event.idx; idx stays current so Cancel can remove from the
// middle. (at, seq) keys are unique, so the pop order is fully determined
// by the key, not by the heap's shape.
type eventHeap []*event

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// up sifts h[j] toward the root.
func (h eventHeap) up(j int) {
	e := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !e.before(p) {
			break
		}
		h[j] = p
		p.idx = j
		j = i
	}
	h[j] = e
	e.idx = j
}

// down sifts h[i] toward the leaves within h[:n] and reports whether it
// moved.
func (h eventHeap) down(i, n int) bool {
	e := h[i]
	i0 := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j, c := l, h[l]
		if r := l + 1; r < n && h[r].before(c) {
			j, c = r, h[r]
		}
		if !c.before(e) {
			break
		}
		h[i] = c
		c.idx = i
		i = j
	}
	h[i] = e
	e.idx = i
	return i > i0
}

func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// remove takes the event at index i out of the heap; pop is remove(0).
func (h *eventHeap) remove(i int) *event {
	old := *h
	n := len(old) - 1
	e := old[i]
	if n != i {
		old[i] = old[n]
		if !old.down(i, n) {
			old.up(i)
		}
	}
	old[n] = nil
	e.idx = -1
	*h = old[:n]
	return e
}

func (h *eventHeap) pop() *event { return h.remove(0) }

// Kernel is a discrete-event scheduler. The zero value is ready to use.
type Kernel struct {
	now     Time
	seq     uint64
	queue   eventHeap
	stopped bool
	// processed counts events executed, for diagnostics and run limits.
	processed uint64
	// maxQueue tracks the high-water mark of the pending-event queue, a
	// cheap load statistic telemetry exports per run.
	maxQueue int
	// daemons counts pending daemon events, so Run can tell when the
	// queue holds nothing but housekeeping.
	daemons int
	// free heads the recycled-event list; its length is bounded by the
	// queue's high-water mark.
	free *event
	// MaxEvents, when non-zero, aborts Run after that many events as a
	// runaway-simulation backstop.
	MaxEvents uint64
}

// NewKernel returns an empty kernel at time 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Processed reports how many events have executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending reports how many events are queued.
func (k *Kernel) Pending() int { return len(k.queue) }

// NextAt reports the time of the earliest pending event, or false when
// the queue is empty. It lets a wall-clock pacer (internal/nettransport)
// sleep exactly until the next deadline instead of polling the kernel.
func (k *Kernel) NextAt() (Time, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

// MaxQueue reports the high-water mark of the pending-event queue — how
// deep the schedule ever got.
func (k *Kernel) MaxQueue() int { return k.maxQueue }

// Clock returns a closure over the kernel's current time, the read-only
// view span tracers and recorders stamp events with.
func (k *Kernel) Clock() func() Time {
	return func() Time { return k.now }
}

// Stats is a frozen snapshot of the kernel's run statistics.
type Stats struct {
	Now       Time
	Processed uint64
	Pending   int
	MaxQueue  int
}

// Stats snapshots the kernel's diagnostics counters.
func (k *Kernel) Stats() Stats {
	return Stats{Now: k.now, Processed: k.processed, Pending: len(k.queue), MaxQueue: k.maxQueue}
}

// Timer identifies a scheduled event so it can be cancelled.
type Timer struct {
	k   *Kernel
	e   *event
	gen uint32
}

// Cancel removes the event if it has not fired yet. It reports whether the
// event was still pending. Cancelling twice, or after the event fired, is
// a harmless no-op — even when the pooled event struct has since been
// reused for a different schedule (the generation check below), so a
// stale Timer can never cancel someone else's event or underflow the
// daemons counter.
func (t Timer) Cancel() bool {
	if t.e == nil || t.e.gen != t.gen || t.e.idx < 0 {
		return false
	}
	t.k.queue.remove(t.e.idx)
	if t.e.daemon {
		t.k.daemons--
	}
	t.k.recycle(t.e)
	return true
}

// alloc takes an event from the free list, or allocates one.
func (k *Kernel) alloc() *event {
	if e := k.free; e != nil {
		k.free = e.next
		e.next = nil
		return e
	}
	return &event{}
}

// recycle retires an event to the free list, bumping its generation so
// outstanding Timers for it go inert.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.idx = -1
	e.daemon = false
	e.next = k.free
	k.free = e
}

// Schedule runs fn after delay (clamped to >= 0) of simulated time.
func (k *Kernel) Schedule(delay Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute time t. Times in the past fire "now".
func (k *Kernel) At(t Time, fn func()) Timer {
	return k.at(t, fn, false)
}

// AtDaemon schedules fn at absolute time t as a daemon event: it fires in
// time order like any other event, but pending daemons alone do not keep
// Run(Forever) alive — when only daemons remain in an unbounded run, the
// kernel stops as if the queue were empty. Within a bounded Run(until),
// daemons due before the horizon still fire, so periodic samplers see the
// whole window. Daemon callbacks must be pure observers: scheduling
// non-daemon work from one would change what "drained" means.
func (k *Kernel) AtDaemon(t Time, fn func()) Timer {
	return k.at(t, fn, true)
}

func (k *Kernel) at(t Time, fn func(), daemon bool) Timer {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < k.now {
		t = k.now
	}
	e := k.alloc()
	e.at, e.seq, e.fn, e.daemon = t, k.seq, fn, daemon
	k.seq++
	k.queue.push(e)
	if daemon {
		k.daemons++
	}
	if len(k.queue) > k.maxQueue {
		k.maxQueue = len(k.queue)
	}
	return Timer{k: k, e: e, gen: e.gen}
}

// Every schedules fn at now+period, then every period thereafter, until the
// returned cancel function is called or the run ends.
func (k *Kernel) Every(period Duration, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: non-positive period")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			k.Schedule(period, tick)
		}
	}
	k.Schedule(period, tick)
	return func() { stopped = true }
}

// EveryDaemon is Every with daemon scheduling (see AtDaemon): fn fires at
// now+period and every period thereafter, but the recurring tick never
// keeps an unbounded Run alive by itself. This is how the telemetry probe
// samples a kernel at a fixed sim-time interval without turning Drain
// into an infinite loop.
func (k *Kernel) EveryDaemon(period Duration, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: non-positive period")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			k.AtDaemon(k.now+period, tick)
		}
	}
	k.AtDaemon(k.now+period, tick)
	return func() { stopped = true }
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the queue empties (or holds
// only daemon events in an unbounded run, see AtDaemon), Stop is called,
// simulated time would exceed until, or MaxEvents is hit.
// It returns the simulated time at which the run ended.
func (k *Kernel) Run(until Time) Time {
	k.stopped = false
	for len(k.queue) > 0 && !k.stopped {
		if k.daemons == len(k.queue) && until >= Forever {
			// Only housekeeping left and no horizon to fill: stop here,
			// leaving the daemons queued, exactly as if the queue were
			// empty. Time stays at the last real event.
			break
		}
		next := k.queue[0]
		if next.at > until {
			k.now = until
			return k.now
		}
		k.queue.pop()
		if next.daemon {
			k.daemons--
		}
		k.now = next.at
		k.processed++
		// Recycle before running: the callback's own schedules may reuse
		// the struct immediately, and its Timer (if any) must already be
		// inert.
		fn := next.fn
		k.recycle(next)
		fn()
		if k.MaxEvents != 0 && k.processed >= k.MaxEvents {
			break
		}
	}
	if k.now < until && until < Forever && len(k.queue) == 0 {
		// Queue drained before a finite horizon: time jumps to the horizon
		// so repeated Run calls remain monotone.
		k.now = until
	}
	return k.now
}

// Drain runs until the queue is empty (daemon events excepted, see
// AtDaemon) with no time horizon.
func (k *Kernel) Drain() Time { return k.Run(Forever) }

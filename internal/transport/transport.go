// Package transport is the unified message layer between every overlay and
// the simulated underlay. The paper's conclusion (§7) calls for "a general
// architecture for underlay awareness in which different underlay
// information can be collected and used"; in unap2p that architecture is a
// single instrumented send path:
//
//	sim.Kernel ── schedules deliveries
//	underlay.Network ── routes bytes, charges links, computes latency
//	transport.Transport ── THIS LAYER: counts, traces, injects faults
//	overlays (gnutella, kademlia, chord, …) ── protocol logic only
//	metrics ── counters, histograms, AS-pair traffic matrices
//	telemetry ── observes it all: run recording, exports
//
// Every overlay message — one-way sends, request/reply round trips, and
// latency probes — goes through a Transport, which provides:
//
//   - per-message-type counters (Counters) and latency histograms,
//   - centralized intra-AS vs cross-ISP byte accounting (StatsFor,
//     IntraFraction) plus optional per-type traffic matrices (MatrixFor),
//   - deterministic fault injection (Faults): per-seed packet loss and
//     extra delay, for the churn/failure robustness studies of §6,
//   - tracing (Trace) of every message for debugging and analysis,
//   - kernel-integrated delivery scheduling (Deliver).
//
// With fault injection disabled the layer is a pure observer: latencies
// and byte accounting are bit-identical to calling underlay.Network.Send
// directly, so fixed-seed experiment results are unchanged by routing
// traffic through it.
package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"unap2p/internal/metrics"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// Result reports the outcome of one transport operation.
type Result struct {
	// Latency is the one-way delivery latency for Send, or the full
	// round-trip latency for RoundTrip and Probe. Zero when the message
	// was dropped.
	Latency sim.Duration
	// OK reports whether the message (and, for round trips, its reply)
	// was delivered. Only fault injection makes it false.
	OK bool
}

// Event describes one message for tracing.
type Event struct {
	From, To *underlay.Host
	Type     string
	Bytes    uint64
	// Latency is the one-way delivery latency (0 when dropped).
	Latency sim.Duration
	// Dropped reports that fault injection discarded the message.
	Dropped bool
	// At is the simulated send time, stamped from the transport's kernel
	// (0 for kernel-less transports, whose sends are not on a timeline).
	At sim.Time
}

// Faults configures deterministic fault injection. The zero value injects
// nothing and adds no per-message RNG draws, preserving bit-identical
// results for existing seeds.
type Faults struct {
	// LossRate is the probability in [0,1] that a message is dropped
	// before reaching the underlay. Requires Rand.
	LossRate float64
	// ExtraDelay is added to every delivered message's one-way latency.
	ExtraDelay sim.Duration
	// JitterMax, when positive, adds a uniform random extra delay in
	// [0, JitterMax) per delivered message. Requires Rand.
	JitterMax sim.Duration
	// Rand is the dedicated RNG stream for loss and jitter draws; use a
	// sim.Source stream so faults are reproducible per seed.
	Rand *rand.Rand
	// Drop, when non-nil, is consulted per message before the LossRate
	// draw; returning true discards the message. It is the hook scenario
	// harnesses (internal/chaos) use for endpoint-aware faults — AS
	// partitions, correlated per-AS loss bursts — that a flat loss rate
	// cannot express. Any randomness inside Drop must come from its own
	// seeded stream to keep runs reproducible.
	Drop func(from, to *underlay.Host) bool
}

func (f Faults) active() bool { return f.LossRate > 0 || f.ExtraDelay > 0 || f.JitterMax > 0 }

// Messenger is the interface overlays send through. *Transport is the
// production implementation; tests inject fakes to observe protocol
// behaviour without a real underlay charge.
type Messenger interface {
	// Underlay returns the network used for topology queries (host
	// lookup, latency estimates); overlays must not call its Send.
	Underlay() *underlay.Network
	// Kernel returns the event kernel for scheduling, or nil when the
	// transport was built without one.
	Kernel() *sim.Kernel
	// Send delivers one message of the given type and size.
	Send(from, to *underlay.Host, bytes uint64, msgType string) Result
	// RoundTrip sends a request and its reply, returning the summed
	// round-trip latency — the request/reply idiom every RPC-style
	// overlay shares. Dropped legs are retried under the transport's
	// default RetryPolicy.
	RoundTrip(from, to *underlay.Host, reqBytes, respBytes uint64, reqType, respType string) Result
	// RoundTripWith is RoundTrip under a caller-supplied retry policy —
	// per-peer budgets and backoff schedules (internal/resilience) ride
	// the same instrumented path.
	RoundTripWith(p RetryPolicy, from, to *underlay.Host, reqBytes, respBytes uint64, reqType, respType string) Result
	// Probe measures the RTT between two hosts with a real probe/response
	// message pair (type "probe"), charging the measurement traffic §3.2
	// warns about.
	Probe(from, to *underlay.Host, bytes uint64) Result
	// Counters exposes the per-message-type counters.
	Counters() *metrics.CounterSet
	// MatrixFor returns a traffic matrix recording every message of the
	// given types (shared across them), creating it on first use.
	MatrixFor(msgTypes ...string) *metrics.TrafficMatrix
}

// typeStats accumulates per-message-type accounting.
type typeStats struct {
	msgs, dropped     uint64
	bytes, intraBytes uint64
	latency           *metrics.Histogram
	// id is the dense index of this type in Transport.typeNames, used as
	// the pointer-free type tag in event log entries.
	id uint32
}

// Stats is a read-only snapshot of one message type's accounting.
type Stats struct {
	Type string
	// Msgs counts send attempts; Dropped counts those lost to fault
	// injection.
	Msgs, Dropped uint64
	// Bytes is delivered payload; IntraBytes the share whose endpoints
	// lay in the same AS. Inter-ISP bytes are Bytes - IntraBytes.
	Bytes, IntraBytes uint64
	// Latency is the one-way delivery latency histogram (live view).
	Latency *metrics.Histogram
}

// InterBytes returns the delivered bytes that crossed an AS boundary —
// the traffic ISPs pay transit for.
func (s Stats) InterBytes() uint64 { return s.Bytes - s.IntraBytes }

// Transport is the production Messenger over a real underlay.
type Transport struct {
	u *underlay.Network
	k *sim.Kernel

	// Faults configures deterministic loss and delay injection.
	Faults Faults
	// Retry is the default policy RoundTrip applies when either leg is
	// dropped; retries are real (counted, charged) messages, so overlay
	// recovery traffic stays bounded and visible. The zero value retries
	// nothing. Callers with per-peer policies (internal/resilience) pass
	// their own via RoundTripWith instead.
	Retry RetryPolicy
	// Trace, when non-nil, observes every message (including drops).
	Trace func(Event)
	// log, when non-nil, receives every message event in place — see
	// EventLog and SetEventLog.
	log *EventLog

	msgs     *metrics.CounterSet
	types    map[string]*typeStats
	matrices map[string]*metrics.TrafficMatrix
	// typeNames maps typeStats.id back to the message type string.
	typeNames []string
}

var _ Messenger = (*Transport)(nil)

// New returns a Transport over the given underlay. k may be nil for
// overlays that never schedule deliveries on a kernel.
func New(u *underlay.Network, k *sim.Kernel) *Transport {
	if u == nil {
		panic("transport: nil underlay")
	}
	return &Transport{
		u:        u,
		k:        k,
		msgs:     metrics.NewCounterSet(),
		types:    make(map[string]*typeStats),
		matrices: make(map[string]*metrics.TrafficMatrix),
	}
}

// Over is shorthand for New(u, nil) — a transport for kernel-less overlays.
func Over(u *underlay.Network) *Transport { return New(u, nil) }

// Underlay returns the wrapped network.
func (t *Transport) Underlay() *underlay.Network { return t.u }

// Kernel returns the event kernel (nil when built without one).
func (t *Transport) Kernel() *sim.Kernel { return t.k }

// Counters exposes the per-message-type counters.
func (t *Transport) Counters() *metrics.CounterSet { return t.msgs }

// MatrixFor returns the traffic matrix shared by the given message types,
// creating and registering one on first use. Subsequent Sends of any of
// the types update it.
func (t *Transport) MatrixFor(msgTypes ...string) *metrics.TrafficMatrix {
	if len(msgTypes) == 0 {
		panic("transport: MatrixFor needs at least one message type")
	}
	var m *metrics.TrafficMatrix
	for _, ty := range msgTypes {
		if ex := t.matrices[ty]; ex != nil {
			m = ex
			break
		}
	}
	if m == nil {
		m = metrics.NewTrafficMatrix()
	}
	for _, ty := range msgTypes {
		t.matrices[ty] = m
	}
	return m
}

// now returns the kernel's simulated time for event stamping (0 when the
// transport is kernel-less).
func (t *Transport) now() sim.Time {
	if t.k == nil {
		return 0
	}
	return t.k.Now()
}

// AddTrace chains fn after any already-installed Trace observer, so
// several consumers (a debug printer, a telemetry recorder) can watch the
// same transport without clobbering each other.
func (t *Transport) AddTrace(fn func(Event)) {
	if fn == nil {
		return
	}
	if prev := t.Trace; prev != nil {
		t.Trace = func(e Event) { prev(e); fn(e) }
		return
	}
	t.Trace = fn
}

// LogEntry is the on-ring representation of one message event. It is
// deliberately pointer-free — host IDs instead of *Host, a dense type
// tag (see Transport.TypeByID) instead of the type string — so the
// in-place fill in Send compiles to a handful of plain stores with no
// GC write barrier and no stack temporary.
type LogEntry struct {
	// At is the simulated send time (0 for kernel-less transports).
	At sim.Time
	// Latency is the one-way delivery latency (0 when dropped).
	Latency sim.Duration
	// Bytes is the message payload size.
	Bytes uint64
	// From and To are the endpoint host IDs.
	From, To int32
	// Type is the message type tag; resolve with Transport.TypeByID.
	Type uint32
	// Dropped reports that fault injection discarded the message.
	Dropped bool
}

// EventLog is a fixed-size ring of message events that Send fills in
// place, keeping the last capacity events — the near-zero-cost
// alternative to a Trace callback for high-rate consumers (the telemetry
// recorder's staging buffer). Unlike Trace, whose indirect call and
// argument copy cost tens of nanoseconds per message, the log append
// inlines into Send as a single in-place struct store: older events are
// overwritten implicitly by the masked write, so the hot path carries no
// overflow branch; Drain reconstructs the overwrite count afterwards. A
// log is written by the one goroutine driving its transport and must
// only be drained after that goroutine is quiescent.
type EventLog struct {
	buf  []LogEntry // power-of-two length; the next slot is buf[w&(len-1)]
	w    uint64     // events written so far
	done uint64     // events already consumed by Drain
}

// NewEventLog returns a log holding up to capacity events (rounded up to
// a power of two; minimum 1).
func NewEventLog(capacity int) *EventLog {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &EventLog{buf: make([]LogEntry, size)}
}

// slot claims the ring slot for the next event; Send constructs the
// event directly into it. Kept trivial so it inlines into the send
// path; the len-1 masking idiom also lets the compiler drop the bounds
// check.
func (l *EventLog) slot() *LogEntry {
	p := &l.buf[l.w&uint64(len(l.buf)-1)]
	l.w++
	return p
}

// Written reports the total events appended so far.
func (l *EventLog) Written() uint64 { return l.w }

// Drain invokes fn on every retained event in arrival order, empties the
// log, and returns how many events were overwritten (lost) since the
// previous drain.
func (l *EventLog) Drain(fn func(*LogEntry)) (lost uint64) {
	lo := l.done
	if l.w-lo > uint64(len(l.buf)) {
		lost = l.w - lo - uint64(len(l.buf))
		lo = l.w - uint64(len(l.buf))
	}
	for i := lo; i < l.w; i++ {
		fn(&l.buf[i&uint64(len(l.buf)-1)])
	}
	l.done = l.w
	return lost
}

// SetEventLog attaches (or, with nil, detaches) the transport's event
// log. A transport has at most one log — attaching replaces any previous
// one; use AddTrace for additional lower-rate observers.
func (t *Transport) SetEventLog(l *EventLog) { t.log = l }

func (t *Transport) stats(msgType string) *typeStats {
	st, ok := t.types[msgType]
	if !ok {
		st = &typeStats{latency: metrics.NewLatencyHistogram(), id: uint32(len(t.typeNames))}
		t.types[msgType] = st
		t.typeNames = append(t.typeNames, msgType)
	}
	return st
}

// TypeByID resolves an event log entry's type tag back to the message
// type string.
func (t *Transport) TypeByID(id uint32) string { return t.typeNames[id] }

// dropped draws the loss decision for one message. The endpoint-aware
// Drop hook is consulted first so a chaos schedule can partition or
// degrade specific AS pairs without perturbing the flat LossRate stream.
func (t *Transport) dropped(from, to *underlay.Host) bool {
	if d := t.Faults.Drop; d != nil && d(from, to) {
		return true
	}
	if t.Faults.LossRate <= 0 {
		return false
	}
	if t.Faults.Rand == nil {
		panic("transport: Faults.LossRate requires Faults.Rand")
	}
	return t.Faults.Rand.Float64() < t.Faults.LossRate
}

// extraDelay draws the injected delay for one delivered message.
func (t *Transport) extraDelay() sim.Duration {
	d := t.Faults.ExtraDelay
	if t.Faults.JitterMax > 0 {
		if t.Faults.Rand == nil {
			panic("transport: Faults.JitterMax requires Faults.Rand")
		}
		d += sim.Duration(t.Faults.Rand.Float64() * float64(t.Faults.JitterMax))
	}
	return d
}

// Send delivers one message: the type counter is incremented, the bytes
// are charged to the underlay path, and the one-way latency (plus any
// injected delay) is returned. A message dropped by fault injection is
// counted but charges nothing.
func (t *Transport) Send(from, to *underlay.Host, bytes uint64, msgType string) Result {
	st := t.stats(msgType)
	t.msgs.Get(msgType).Inc()
	st.msgs++
	if t.dropped(from, to) {
		st.dropped++
		if l := t.log; l != nil {
			*l.slot() = LogEntry{At: t.now(), Bytes: bytes,
				From: int32(from.ID), To: int32(to.ID), Type: st.id, Dropped: true}
		}
		if t.Trace != nil {
			t.Trace(Event{From: from, To: to, Type: msgType, Bytes: bytes, Dropped: true, At: t.now()})
		}
		return Result{}
	}
	lat := t.u.Send(from, to, bytes)
	if t.Faults.active() {
		lat += t.extraDelay()
	}
	st.bytes += bytes
	if from.AS.ID == to.AS.ID {
		st.intraBytes += bytes
	}
	st.latency.Observe(float64(lat))
	if m := t.matrices[msgType]; m != nil {
		m.Add(from.AS.ID, to.AS.ID, bytes)
	}
	if l := t.log; l != nil {
		*l.slot() = LogEntry{At: t.now(), Latency: lat, Bytes: bytes,
			From: int32(from.ID), To: int32(to.ID), Type: st.id}
	}
	if t.Trace != nil {
		t.Trace(Event{From: from, To: to, Type: msgType, Bytes: bytes, Latency: lat, At: t.now()})
	}
	return Result{Latency: lat, OK: true}
}

// RetryPolicy governs how RoundTrip reacts to a dropped leg. The zero
// value makes a single attempt and gives up — identical to the seed
// behaviour, so existing fixed-seed results are unchanged.
type RetryPolicy struct {
	// Budget is the number of extra attempts after the first; each retry
	// re-sends the full request (and, on delivery, the reply), so every
	// attempt is a real counted, charged message.
	Budget int
	// Backoff, when non-nil, returns the wait inserted before retry
	// attempt n (1-based: Backoff(1) precedes the first re-send). Waits
	// are charged into the successful Result.Latency so recovery time is
	// visible to the caller; they draw no transport RNG, keeping the
	// fault stream stable. A resilience layer supplies a jittered
	// exponential backoff here from its own seeded stream.
	Backoff func(attempt int) sim.Duration
}

// RoundTrip performs a request/reply exchange under the transport's
// default Retry policy. It returns the summed round-trip latency of the
// successful attempt plus any backoff waits spent reaching it.
func (t *Transport) RoundTrip(from, to *underlay.Host, reqBytes, respBytes uint64,
	reqType, respType string) Result {
	return t.RoundTripWith(t.Retry, from, to, reqBytes, respBytes, reqType, respType)
}

// RoundTripWith is RoundTrip with a caller-supplied retry policy — the
// seam that lets per-peer policies (failure detectors, backoff schedules)
// drive the shared send path without mutating transport-wide state.
func (t *Transport) RoundTripWith(p RetryPolicy, from, to *underlay.Host,
	reqBytes, respBytes uint64, reqType, respType string) Result {
	var waited sim.Duration
	for attempt := 0; ; attempt++ {
		req := t.Send(from, to, reqBytes, reqType)
		if req.OK {
			resp := t.Send(to, from, respBytes, respType)
			if resp.OK {
				return Result{Latency: waited + req.Latency + resp.Latency, OK: true}
			}
		}
		if attempt >= p.Budget {
			return Result{}
		}
		if p.Backoff != nil {
			waited += p.Backoff(attempt + 1)
		}
	}
}

// Probe measures the RTT between two hosts with a probe/response pair of
// the given size, counted under type "probe".
func (t *Transport) Probe(from, to *underlay.Host, bytes uint64) Result {
	return t.RoundTrip(from, to, bytes, bytes, "probe", "probe")
}

// Deliver sends a message and schedules fn on the kernel at its delivery
// time. A dropped message never runs fn. It reports whether delivery was
// scheduled.
func (t *Transport) Deliver(from, to *underlay.Host, bytes uint64, msgType string, fn func()) bool {
	if t.k == nil {
		panic("transport: Deliver requires a kernel")
	}
	res := t.Send(from, to, bytes, msgType)
	if !res.OK {
		return false
	}
	t.k.Schedule(res.Latency, fn)
	return true
}

// TrafficMatrices returns each registered matrix exactly once, keyed by
// the sorted "+"-joined message types that share it — the enumeration the
// telemetry exporter snapshots.
func (t *Transport) TrafficMatrices() map[string]*metrics.TrafficMatrix {
	byMatrix := make(map[*metrics.TrafficMatrix][]string)
	for ty, m := range t.matrices {
		byMatrix[m] = append(byMatrix[m], ty)
	}
	out := make(map[string]*metrics.TrafficMatrix, len(byMatrix))
	for m, tys := range byMatrix {
		sort.Strings(tys)
		out[strings.Join(tys, "+")] = m
	}
	return out
}

// TypeNames returns every message type seen so far, sorted.
func (t *Transport) TypeNames() []string {
	names := make([]string, 0, len(t.types))
	for n := range t.types {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StatsFor returns the accounting snapshot for one message type (zero
// Stats with a nil histogram when the type was never sent).
func (t *Transport) StatsFor(msgType string) Stats {
	st, ok := t.types[msgType]
	if !ok {
		return Stats{Type: msgType}
	}
	return Stats{
		Type: msgType, Msgs: st.msgs, Dropped: st.dropped,
		Bytes: st.bytes, IntraBytes: st.intraBytes, Latency: st.latency,
	}
}

// AllStats returns snapshots for every message type, sorted by type.
func (t *Transport) AllStats() []Stats {
	out := make([]Stats, 0, len(t.types))
	for _, n := range t.TypeNames() {
		out = append(out, t.StatsFor(n))
	}
	return out
}

// IntraFraction returns the intra-AS share of all delivered bytes in
// [0,1] — the locality headline, computed once here instead of per
// experiment.
func (t *Transport) IntraFraction() float64 {
	var intra, total uint64
	for _, st := range t.types {
		intra += st.intraBytes
		total += st.bytes
	}
	if total == 0 {
		return 0
	}
	return float64(intra) / float64(total)
}

// Report formats the per-type accounting as an aligned text table.
func (t *Transport) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %8s %12s %8s %10s %10s\n",
		"type", "msgs", "dropped", "bytes", "intra%", "lat p50", "lat p95")
	for _, s := range t.AllStats() {
		intra := 0.0
		if s.Bytes > 0 {
			intra = 100 * float64(s.IntraBytes) / float64(s.Bytes)
		}
		fmt.Fprintf(&b, "%-12s %10d %8d %12d %7.1f%% %10.1f %10.1f\n",
			s.Type, s.Msgs, s.Dropped, s.Bytes, intra,
			s.Latency.Quantile(0.5), s.Latency.Quantile(0.95))
	}
	return b.String()
}

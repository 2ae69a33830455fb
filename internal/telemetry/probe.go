package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"

	"unap2p/internal/churn"
	"unap2p/internal/mobility"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
)

// HealthReporter is the overlay-health introspection hook: a component
// exposes a flat map of gauges describing how healthy its structure is
// right now — routing-table fill and AS-hop locality for a DHT, ultrapeer
// fan-out and intra-AS neighbor share for Gnutella, piece completion for
// a swarm, median prediction error for a coordinate system. All unap2p
// overlays implement it. Keys must be stable across calls and values
// must be computed by pure reads in deterministic order, because the
// Probe samples them mid-run and a sampled run must stay bit-identical
// to an unsampled one.
type HealthReporter interface {
	HealthStats() map[string]float64
}

// Sample is one probe tick: everything the recorder can snapshot,
// flattened to scalars, plus the registered health sources, at one point
// in simulated time. Samples serialize into run files as the "sample"
// JSONL record type, between events and the summary.
type Sample struct {
	// Seq numbers samples from 0 in capture order — the x-axis for
	// experiments that drive overlays in rounds rather than on a kernel
	// (all their samples share At 0).
	Seq uint64 `json:"seq"`
	// At is the latest simulated time across the probe's observed
	// kernels when the sample was taken.
	At sim.Time `json:"at"`
	// Values maps flattened metric names (see MetricsSnapshot.Flatten)
	// and "health:<source>:<key>" gauges to their sampled values.
	// Non-finite values are dropped at capture time: JSON cannot carry
	// them and a NaN in a series poisons every aggregate downstream.
	Values map[string]float64 `json:"values"`
}

// Series is a bounded in-memory sample store. When full, the oldest
// sample is dropped and counted, so a long run keeps a sliding window
// instead of growing without bound.
type Series struct {
	mu      sync.Mutex
	cap     int
	samples []Sample
	dropped uint64
}

// NewSeries returns a series retaining at most capacity samples
// (default 4096 when capacity <= 0).
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Series{cap: capacity}
}

func (s *Series) add(smp Sample) {
	s.mu.Lock()
	if len(s.samples) == s.cap {
		copy(s.samples, s.samples[1:])
		s.samples = s.samples[:len(s.samples)-1]
		s.dropped++
	}
	s.samples = append(s.samples, smp)
	s.mu.Unlock()
}

// Samples returns a copy of the retained samples, oldest first.
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Len reports how many samples are retained.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Dropped reports how many samples retention has discarded.
func (s *Series) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Last returns the most recent sample, if any.
func (s *Series) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

// Values extracts one metric's series aligned with Samples(); ticks
// where the metric is absent yield NaN so the caller can tell "missing"
// from zero.
func (s *Series) Values(metric string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sampleValues(s.samples, metric)
}

// ProbeConfig parameterizes a Probe.
type ProbeConfig struct {
	// Interval is the sim-time sampling period for observed kernels
	// (default 100 ms of simulated time).
	Interval sim.Duration
	// Retention bounds the in-memory Series (default 4096 samples).
	// Run-file sinks receive every sample regardless.
	Retention int
}

// Probe is the sim-time sampling plane over a Recorder. It implements
// the same observer surface as the Recorder (experiments attach it via
// RunConfig.Obs exactly like a bare Recorder) and additionally:
//
//   - schedules a daemon tick on every observed kernel at Interval,
//     snapshotting all registered metrics and health sources;
//   - accepts overlay HealthStats sources via ObserveHealth;
//   - appends each Sample to a bounded Series and streams it into the
//     recorder's run file as a "sample" record;
//   - caches the latest MetricsSnapshot for lock-free serving (see
//     Serve), at most one interval stale.
//
// Like the Recorder, the Probe is a pure observer: every sampling
// callback is a read, daemon ticks never extend a run (see
// sim.AtDaemon), and fixed-seed results are bit-identical with or
// without one attached. Sampling happens on the goroutine driving the
// simulation; a probe must not be shared across concurrent sweep
// workers (attach one per run, or fall back to a bare Recorder).
type Probe struct {
	rec      *Recorder
	interval sim.Duration
	series   *Series

	mu      sync.Mutex
	seq     uint64
	kernels []*sim.Kernel
	sharded []*sim.ShardedKernel
	cancels []func()
	health  []healthSource
	counts  map[string]int
	churns  []*churn.Driver
	latest  MetricsSnapshot
	hasSnap bool
}

type healthSource struct {
	name string
	fn   func() map[string]float64
}

// NewProbe returns a probe sampling rec. A nil rec gets a fresh
// sink-less recorder, for callers that only want live series.
func NewProbe(rec *Recorder, cfg ProbeConfig) *Probe {
	if rec == nil {
		rec = NewRecorder(Config{})
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * sim.Millisecond
	}
	return &Probe{
		rec:      rec,
		interval: cfg.Interval,
		series:   NewSeries(cfg.Retention),
		counts:   make(map[string]int),
	}
}

// Recorder returns the wrapped recorder.
func (p *Probe) Recorder() *Recorder { return p.rec }

// Series returns the in-memory sample store.
func (p *Probe) Series() *Series { return p.series }

// Interval returns the sim-time sampling period.
func (p *Probe) Interval() sim.Duration { return p.interval }

// ObserveTransport delegates to the recorder.
func (p *Probe) ObserveTransport(t *transport.Transport) { p.rec.ObserveTransport(t) }

// ObserveKernel delegates to the recorder and starts the sampling tick:
// a daemon event every Interval of that kernel's simulated time. Daemon
// scheduling means the tick fires throughout bounded runs but never
// keeps Drain alive on its own.
func (p *Probe) ObserveKernel(k *sim.Kernel) {
	if k == nil {
		return
	}
	p.rec.ObserveKernel(k)
	p.mu.Lock()
	for _, have := range p.kernels {
		if have == k {
			p.mu.Unlock()
			return
		}
	}
	p.kernels = append(p.kernels, k)
	p.mu.Unlock()
	cancel := k.EveryDaemon(p.interval, p.Sample)
	p.mu.Lock()
	p.cancels = append(p.cancels, cancel)
	p.mu.Unlock()
}

// ObserveShardedKernel delegates to the recorder and includes the
// kernel's time in sample stamps. Unlike ObserveKernel it installs no
// sampling tick of its own: in a sharded run, sampling is only safe at
// epoch barriers, so the experiment wires the kernel's OnBarrier hook to
// Sample (usually with a stride).
func (p *Probe) ObserveShardedKernel(sk *sim.ShardedKernel) {
	if sk == nil {
		return
	}
	p.rec.ObserveShardedKernel(sk)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, have := range p.sharded {
		if have == sk {
			return
		}
	}
	p.sharded = append(p.sharded, sk)
}

// ObserveChurn delegates to the recorder and samples the driver's live
// population as health:churn:online.
func (p *Probe) ObserveChurn(d *churn.Driver) {
	if d == nil {
		return
	}
	p.rec.ObserveChurn(d)
	p.mu.Lock()
	p.churns = append(p.churns, d)
	p.mu.Unlock()
}

// ObserveMobility delegates to the recorder.
func (p *Probe) ObserveMobility(m *mobility.Model) { p.rec.ObserveMobility(m) }

// ObserveHealth registers a health source sampled at every tick as
// "health:<name>:<key>" gauges. Registering the same name again
// auto-suffixes it (name, name2, …), so an experiment that builds the
// same overlay per variant keeps the curves separable. The parameter is
// a plain func so packages that must not import telemetry (notably
// internal/experiments) can feed it through a structural interface
// check; stats must be a pure deterministic read.
func (p *Probe) ObserveHealth(name string, stats func() map[string]float64) {
	if stats == nil {
		return
	}
	p.mu.Lock()
	n := p.counts[name]
	p.counts[name] = n + 1
	p.health = append(p.health, healthSource{name: prefixed(name, n), fn: stats})
	p.mu.Unlock()
}

// Sample takes one sample immediately: the recorder's full metrics
// snapshot flattened to scalars, every health source, and each churn
// driver's live population. Kernel-driven ticks call it automatically;
// experiments without a kernel call it manually at round boundaries.
// It must run on the goroutine driving the simulation (the recorder's
// quiescence contract).
func (p *Probe) Sample() {
	snap := p.rec.Snapshot()

	p.mu.Lock()
	seq := p.seq
	p.seq++
	var at sim.Time
	for _, k := range p.kernels {
		if now := k.Now(); now > at {
			at = now
		}
	}
	for _, sk := range p.sharded {
		if now := sk.Now(); now > at {
			at = now
		}
	}
	health := append([]healthSource(nil), p.health...)
	churns := append([]*churn.Driver(nil), p.churns...)
	p.mu.Unlock()

	values := snap.Flatten()
	for _, h := range health {
		for k, v := range h.fn() {
			values["health:"+h.name+":"+k] = v
		}
	}
	for i, d := range churns {
		values["health:"+prefixed("churn", i)+":online"] = float64(d.Online())
	}
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(values, k)
		}
	}

	smp := Sample{Seq: seq, At: at, Values: values}
	p.series.add(smp)
	p.mu.Lock()
	p.latest = snap
	p.hasSnap = true
	p.mu.Unlock()
	p.rec.recordSample(smp)
}

// LatestSnapshot returns the metrics snapshot cached by the most recent
// sample (empty before the first tick). Unlike Recorder.Snapshot it is
// safe to call from any goroutine at any time — this is the source
// Serve renders /metrics from while the simulation is still running.
func (p *Probe) LatestSnapshot() MetricsSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.hasSnap {
		return newMetricsSnapshot()
	}
	return p.latest
}

// Stop cancels the kernel sampling ticks. Manual Sample calls still
// work; Stop exists for callers that attach a probe to a long-lived
// kernel and want sampling bounded to a phase.
func (p *Probe) Stop() {
	p.mu.Lock()
	cancels := p.cancels
	p.cancels = nil
	p.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// sampleValues extracts metric across samples, NaN where absent.
func sampleValues(samples []Sample, metric string) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		if v, ok := s.Values[metric]; ok {
			out[i] = v
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// SampleMetrics returns the sorted union of metric names across samples.
func SampleMetrics(samples []Sample) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range samples {
		for k := range s.Values {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a unicode block sparkline at most width
// cells wide (longer series are bucket-averaged down). Values are
// min-max normalized over the finite points; NaN cells render as
// spaces; a flat series renders as a line of low blocks. width <= 0
// means one cell per value.
func Sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	if width > 0 && len(vals) > width {
		vals = downsample(vals, width)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		switch {
		case math.IsNaN(v):
			b.WriteRune(' ')
		case hi == lo:
			b.WriteRune(sparkRunes[0])
		default:
			idx := int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
			b.WriteRune(sparkRunes[idx])
		}
	}
	return b.String()
}

// downsample bucket-averages vals to width points, skipping NaNs; a
// bucket of only NaNs stays NaN.
func downsample(vals []float64, width int) []float64 {
	out := make([]float64, width)
	for i := range out {
		lo := i * len(vals) / width
		hi := (i + 1) * len(vals) / width
		if hi <= lo {
			hi = lo + 1
		}
		sum, n := 0.0, 0
		for _, v := range vals[lo:hi] {
			if !math.IsNaN(v) {
				sum += v
				n++
			}
		}
		if n == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sum / float64(n)
		}
	}
	return out
}

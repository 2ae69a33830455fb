package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"unap2p/internal/metrics"
)

// MetricsSnapshot is the frozen, serializable view of every metric a run
// exported: flat counters and gauges plus named histogram and
// traffic-matrix snapshots. It is embedded in a run's Summary and is the
// unit `unapctl diff` compares.
type MetricsSnapshot struct {
	Counters   map[string]uint64                    `json:"counters,omitempty"`
	Gauges     map[string]float64                   `json:"gauges,omitempty"`
	Histograms map[string]metrics.HistogramSnapshot `json:"histograms,omitempty"`
	Matrices   map[string]metrics.MatrixSnapshot    `json:"matrices,omitempty"`
}

// newMetricsSnapshot returns an empty snapshot with all maps allocated.
func newMetricsSnapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]metrics.HistogramSnapshot{},
		Matrices:   map[string]metrics.MatrixSnapshot{},
	}
}

// JSON renders the snapshot as indented, key-sorted JSON (encoding/json
// sorts map keys, so output is deterministic).
func (s MetricsSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Flatten reduces the snapshot to scalar name → value pairs: counters and
// gauges verbatim, histograms as <name>.{n,mean,p50,p95,max}, matrices as
// <name>.{total,intra,intra_fraction} — the flat space `unapctl diff`
// compares run-to-run.
func (s MetricsSnapshot) Flatten() map[string]float64 {
	out := make(map[string]float64, len(s.Counters)+len(s.Gauges)+5*len(s.Histograms)+3*len(s.Matrices))
	for k, v := range s.Counters {
		out[k] = float64(v)
	}
	for k, v := range s.Gauges {
		out[k] = v
	}
	for k, h := range s.Histograms {
		out[k+".n"] = float64(h.N)
		out[k+".mean"] = h.Mean()
		out[k+".p50"] = h.Quantile(0.5)
		out[k+".p95"] = h.Quantile(0.95)
		out[k+".max"] = h.Max
	}
	for k, m := range s.Matrices {
		out[k+".total"] = float64(m.Total)
		out[k+".intra"] = float64(m.Intra)
		out[k+".intra_fraction"] = m.IntraFraction()
	}
	return out
}

// promName sanitizes a metric name into the Prometheus exporter charset
// [a-zA-Z0-9_] (colons are legal but reserved for recording rules),
// prefixed with the unap2p namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("unap2p_")
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PrometheusText renders the snapshot in the Prometheus text exposition
// format (v0.0.4): counters as <name>_total, gauges plain, histograms
// with cumulative le-labelled buckets plus _sum and _count, matrices as
// three gauges. Output is deterministic (name-sorted).
func (s MetricsSnapshot) PrometheusText() string {
	var b strings.Builder
	for _, name := range metrics.SortedKeys(s.Counters) {
		pn := promName(name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}
	for _, name := range metrics.SortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", pn, pn, s.Gauges[name])
	}
	for _, name := range metrics.SortedKeys(s.Histograms) {
		h := s.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%g\"} %d\n", pn, bound, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.N)
		fmt.Fprintf(&b, "%s_sum %g\n", pn, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.N)
	}
	for _, name := range metrics.SortedKeys(s.Matrices) {
		m := s.Matrices[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s_bytes gauge\n", pn)
		fmt.Fprintf(&b, "%s_bytes{scope=\"total\"} %d\n", pn, m.Total)
		fmt.Fprintf(&b, "%s_bytes{scope=\"intra\"} %d\n", pn, m.Intra)
		fmt.Fprintf(&b, "%s_bytes{scope=\"inter\"} %d\n", pn, m.Total-m.Intra)
	}
	return b.String()
}

// Registry tracks live metric sources by name and snapshots them on
// demand. The Recorder owns one (every component it observes registers
// its meters here), and callers may register extra application metrics
// through Recorder.Registry(). Registration of a name already taken
// panics — silent aliasing would corrupt diffs.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*metrics.CounterSet
	histograms map[string]*metrics.Histogram
	gauges     map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*metrics.CounterSet{},
		histograms: map[string]*metrics.Histogram{},
		gauges:     map[string]func() float64{},
	}
}

func (r *Registry) checkFresh(name string) {
	if _, ok := r.counters[name]; ok {
		panic("telemetry: duplicate metric name " + name)
	}
	if _, ok := r.histograms[name]; ok {
		panic("telemetry: duplicate metric name " + name)
	}
	if _, ok := r.gauges[name]; ok {
		panic("telemetry: duplicate metric name " + name)
	}
}

// RegisterCounters registers a counter set; its counters snapshot as
// "<name>:<counter>".
func (r *Registry) RegisterCounters(name string, cs *metrics.CounterSet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFresh(name)
	r.counters[name] = cs
}

// RegisterHistogram registers a live histogram under name.
func (r *Registry) RegisterHistogram(name string, h *metrics.Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFresh(name)
	r.histograms[name] = h
}

// RegisterGauge registers a gauge function sampled at snapshot time.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkFresh(name)
	r.gauges[name] = fn
}

// Snapshot freezes every registered source into one MetricsSnapshot.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := newMetricsSnapshot()
	for name, cs := range r.counters {
		for cname, v := range cs.Snapshot() {
			s.Counters[name+":"+cname] = v
		}
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	for name, fn := range r.gauges {
		s.Gauges[name] = fn()
	}
	return s
}

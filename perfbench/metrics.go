package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"unap2p/internal/experiments"
)

// metricDef is one metric of BENCHMARK.json. Moves names, for a
// per-layer metric, the end-to-end metric it should move and on which
// workload.
type metricDef struct {
	Name, Unit, Better string
	Moves              string
}

// endToEnd are the metrics a user of the system sees. Every workload
// emits all of them, and none is ever 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "wire_bytes_per_op", Unit: "B", Better: "lower"},
}

// cpuPackages are the buckets of the flat CPU profile share; repo
// packages under internal/ use their path with "/" as "_".
var cpuPackages = []string{
	"topology", "underlay", "sim", "transport", "megascale",
	"overlay_kademlia", "overlay_chord", "overlay_gnutella", "overlay_other",
	"core", "metrics", "churn", "nettransport", "livenode", "resilience",
	"telemetry", "experiments", "other_repo", "perfbench", "runtime", "stdlib",
}

// perLayer lists the traced run's metrics. Every workload of
// BENCHMARK.json emits all of them; a layer the workload leaves idle
// reads 0.
func perLayer() []metricDef {
	const (
		megaSetup = "setup_s on mega-flood"
		megaOps   = "ops_per_s on mega-flood"
		megaWire  = "wire_bytes_per_op and ops_per_s on mega-flood"
		liveLat   = "op_p50_ms and ops_per_s on live-kad"
		liveCPU   = "cpu_ms_per_op and alloc_kb_per_op on live-kad"
		liveFail  = "failed/attempted on live-kad"
		liveTail  = "op_p99_ms and cpu_ms_per_op on live-kad"
		simOps    = "ops_per_s on sim-paper"
		verify    = "none (traced live verification pass, reported as measured)"
		every     = "ops_per_s and alloc_kb_per_op on every workload"
	)
	defs := []metricDef{
		{"topology.build_s", "s", "lower", megaSetup},
		{"underlay.routes_s", "s", "lower", megaSetup},
		{"underlay.peer_table_s", "s", "lower", megaSetup},
		{"overlay.gnutella.bootstrap_s", "s", "lower", megaSetup},
		{"overlay.gnutella.heap_mb", "MiB", "lower", "setup_s and heap_mb on mega-flood"},
		{"overlay.gnutella.hit_ratio", "ratio", "higher", "the flood's answer rate on mega-flood"},
		{"overlay.gnutella.first_hit_hops", "count", "lower", "overlay.gnutella.hit_ratio on mega-flood"},
		{"overlay.gnutella.coverage", "ratio", "higher", "overlay.gnutella.hit_ratio on mega-flood"},

		metricDef{"sim.epochs_per_op", "count", "lower", megaOps},
		metricDef{"sim.events_per_op", "count", "lower", megaOps},
		metricDef{"sim.epoch_wall_us_p50", "us", "lower", megaOps},
		metricDef{"sim.epoch_wall_us_p99", "us", "lower", megaOps},
		metricDef{"sim.cross_events_per_op", "count", "lower", megaOps},
		metricDef{"sim.shard_imbalance", "ratio", "lower", megaOps},
		metricDef{"sim.max_queue", "count", "lower", megaOps},
		metricDef{"sim.late_events", "count", "lower", "must stay 0 on mega-flood"},

		metricDef{"transport.msgs_per_op", "count", "lower", megaWire},
		metricDef{"transport.gnutella_req.msgs_per_op", "count", "lower", megaWire},
		metricDef{"transport.gnutella_rep.msgs_per_op", "count", "lower", megaWire},
		metricDef{"transport.cross_shard_msg_fraction", "ratio", "lower", megaWire},
		metricDef{"transport.inter_as_byte_fraction", "ratio", "lower", "the paper's ISP-cost metric on mega-flood"},
		metricDef{"transport.sim_msgs_per_pass", "count", "lower", simOps},
		metricDef{"transport.sim_inter_as_byte_fraction", "ratio", "lower", simOps},
		metricDef{"sim.kernel_events_per_pass", "count", "lower", simOps},

		metricDef{"nettransport.rpcs_per_lookup", "count", "lower", liveLat},
		metricDef{"nettransport.rtt_mean_ms", "ms", "lower", liveLat},
		metricDef{"nettransport.rpc_share_of_lookup", "ratio", "lower", liveLat},
		metricDef{"nettransport.frames_rx_per_s", "1/s", "higher", liveCPU},
		metricDef{"nettransport.codec_ns_per_frame", "ns", "lower", liveCPU},
		metricDef{"nettransport.counter_names", "count", "lower", liveCPU},
		metricDef{"nettransport.timeouts", "count", "lower", liveFail},
		metricDef{"nettransport.rx_bad", "count", "lower", liveFail},
		metricDef{"nettransport.tx_err", "count", "lower", liveFail},

		metricDef{"livenode.engine_self_ms_per_lookup", "ms", "lower", liveTail},
		metricDef{"livenode.fd_pings_per_s", "1/s", "lower", liveTail},
		metricDef{"livenode.goroutines", "count", "lower", liveTail},
		metricDef{"resilience.suspects", "count", "lower", liveTail},
		metricDef{"resilience.evictions", "count", "lower", "must stay 0 on live-kad"},
	}
	for _, ov := range []string{"kademlia", "chord", "gnutella"} {
		defs = append(defs,
			metricDef{"livenode." + ov + ".verified_ratio", "ratio", "higher", verify},
			metricDef{"livenode." + ov + ".lookup_ms", "ms", "lower", verify})
	}
	for _, id := range simPaperIDs() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s", "lower", simOps})
	}
	defs = append(defs,
		metricDef{"telemetry.snapshot_us", "us", "lower", liveCPU},
		metricDef{"telemetry.record_pass_s", "s", "lower", "compare with 1/ops_per_s per experiment on sim-paper"},
		metricDef{"runtime.gc_cpu_fraction", "ratio", "lower", every},
		metricDef{"trace.overhead_fraction", "ratio", "lower", "none (1 - traced/untraced ops_per_s)"},
	)
	for _, p := range cpuPackages {
		defs = append(defs, metricDef{"cpu." + p + "_share", "ratio", "lower", every})
	}
	return defs
}

// heldOutLayer lists the per-layer metrics only mega-dht measures. That
// workload is not in BENCHMARK.json (see heldOut in main.go), so these
// are printed for reading and kept out of the result line.
func heldOutLayer() []metricDef {
	const (
		setup = "setup_s on mega-dht"
		ops   = "ops_per_s, wire_bytes_per_op and op_p50_ms on mega-dht; no change on mega-flood"
	)
	var defs []metricDef
	for _, ov := range []string{"kademlia", "chord"} {
		defs = append(defs,
			metricDef{"overlay." + ov + ".bootstrap_s", "s", "lower", setup},
			metricDef{"overlay." + ov + ".heap_mb", "MiB", "lower", "setup_s and heap_mb on mega-dht"},
			metricDef{"overlay." + ov + ".hops", "count", "lower", ops},
			metricDef{"overlay." + ov + ".sim_lookup_p50_ms", "ms", "lower", ops},
			metricDef{"transport." + ov + "_req.msgs_per_op", "count", "lower", "wire_bytes_per_op on mega-dht"},
			metricDef{"transport." + ov + "_rep.msgs_per_op", "count", "lower", "wire_bytes_per_op on mega-dht"})
	}
	return defs
}

// simPaperIDs are the experiments sim-paper runs: every registered one
// except exp-megascale, which the mega workloads cover.
func simPaperIDs() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if id != "exp-megascale" {
			ids = append(ids, id)
		}
	}
	return ids
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	rmAllocs   = "/gc/heap/allocs:bytes"
	rmLive     = "/gc/heap/live:bytes"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
)

// readRuntime reads runtime/metrics samples by name.
func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// liveHeapMB forces a collection and returns the live heap in MiB, as
// the runtime marked it — never a process-lifetime peak.
func liveHeapMB() float64 {
	runtime.GC()
	return readRuntime(rmLive)[0] / (1 << 20)
}

// phase measures one timed phase: wall time, process CPU, heap bytes
// allocated and the GC's share of CPU.
type phase struct {
	wall   time.Time
	cpu    time.Duration
	allocs float64
	gcCPU  float64
	allCPU float64
}

func startPhase() phase {
	rm := readRuntime(rmAllocs, rmGCCPU, rmTotalCPU)
	return phase{wall: time.Now(), cpu: cpuTime(), allocs: rm[0], gcCPU: rm[1], allCPU: rm[2]}
}

// phaseTotals are a phase's deltas.
type phaseTotals struct {
	Wall, CPU  time.Duration
	AllocBytes float64
	GCFraction float64
}

func (p phase) stop() phaseTotals {
	wall := time.Since(p.wall)
	cpu := cpuTime() - p.cpu
	rm := readRuntime(rmAllocs, rmGCCPU, rmTotalCPU)
	t := phaseTotals{Wall: wall, CPU: cpu, AllocBytes: rm[0] - p.allocs}
	if d := rm[2] - p.allCPU; d > 0 {
		t.GCFraction = (rm[1] - p.gcCPU) / d
	}
	return t
}

// window is one slice of a timed phase: a block of megascale ops or a
// second of live lookups.
type window struct {
	ops       int64
	wall, cpu time.Duration
	lat       []float64 // latencies of the ops that completed in it, ms
}

// fill sets the end-to-end per-op figures. Rates and latency percentiles
// are the median over windows, so a burst of load from outside the
// process moves them less than it would move a whole-phase figure;
// allocation is counted over the whole phase.
func (t phaseTotals) fill(r *report, ops int64, ws []window) {
	var rate, cpu, p50, p99 []float64
	for _, w := range ws {
		if w.ops == 0 {
			continue
		}
		rate = append(rate, float64(w.ops)/w.wall.Seconds())
		cpu = append(cpu, ms(w.cpu)/float64(w.ops))
		p50 = append(p50, quantile(w.lat, 0.50))
		p99 = append(p99, quantile(w.lat, 0.99))
	}
	r.E2E["ops_per_s"] = median(rate)
	r.E2E["cpu_ms_per_op"] = median(cpu)
	r.E2E["op_p50_ms"] = median(p50)
	r.E2E["op_p99_ms"] = median(p99)
	r.E2E["alloc_kb_per_op"] = t.AllocBytes / 1024 / float64(ops)
	r.Layer["runtime.gc_cpu_fraction"] = t.GCFraction
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup runs build reps times and reports the median wall time as
// setup_s. Every product but the last is handed to teardown, outside the
// timed window, and a forced collection before each repetition keeps one
// build's garbage out of the next one's time.
func timeSetup[T any](r *report, reps int, build func() (T, error), teardown func(T)) (T, error) {
	var out T
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		sp := r.Trace.begin("setup", -1, int64(i))
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return out, err
		}
		times = append(times, time.Since(t0).Seconds())
		r.Trace.end(sp)
		if i < reps-1 && teardown != nil {
			teardown(v)
		}
		out = v
	}
	r.E2E["setup_s"] = median(times)
	return out, nil
}

package main

import (
	"fmt"
	"time"

	"unap2p/internal/churn"
	"unap2p/internal/experiments"
	"unap2p/internal/mobility"
	"unap2p/internal/sim"
	"unap2p/internal/telemetry"
	"unap2p/internal/transport"
)

// counterObs is a passive experiments.Observer: it only keeps the
// transports and kernels an experiment builds, so their counters can be
// read after the run. It changes nothing the experiment computes.
type counterObs struct {
	transports []*transport.Transport
	kernels    []*sim.Kernel
}

func (c *counterObs) ObserveTransport(t *transport.Transport) { c.transports = append(c.transports, t) }
func (c *counterObs) ObserveChurn(*churn.Driver)              {}
func (c *counterObs) ObserveMobility(*mobility.Model)         {}
func (c *counterObs) ObserveKernel(k *sim.Kernel) {
	for _, have := range c.kernels {
		if have == k {
			return
		}
	}
	c.kernels = append(c.kernels, k)
}

// simTotals are the sim plane's counters summed over experiment runs.
type simTotals struct {
	msgs, bytes, interBytes, events float64
}

// take adds the counters of every component observed since the last
// call, and forgets them.
func (c *counterObs) take(t *simTotals) {
	for _, tr := range c.transports {
		for _, st := range tr.AllStats() {
			t.msgs += float64(st.Msgs)
			t.bytes += float64(st.Bytes)
			t.interBytes += float64(st.InterBytes())
		}
	}
	for _, k := range c.kernels {
		t.events += float64(k.Stats().Processed)
	}
	c.transports, c.kernels = c.transports[:0], c.kernels[:0]
}

// simRun is one experiment run of the timed phase.
type simRun struct {
	id        string
	wall, cpu time.Duration
	ok        bool
}

// runSimPaper runs the sim-paper workload: whole passes over every
// registered experiment but exp-megascale, in registry order, on one
// goroutine. Each run's Result must equal the first pass's, byte for
// byte.
func runSimPaper(o options) (*report, error) {
	r := newReport(newEnv("one goroutine, whole passes over the experiment registry (closed loop)",
		fmt.Sprintf("deterministic sim plane at Scale %g", o.Size.Scale)), newTracer(o.Traced))
	ids := simPaperIDs()
	obs := &counterObs{}
	cfg := experiments.RunConfig{Seed: o.Seed, Scale: o.Size.Scale, Obs: obs}

	// Set-up: the untimed warm-up passes. The first one's results are the
	// reference every later run must reproduce. setup_s is one pass at
	// each experiment's median time over the warm-up passes.
	ref := map[string]string{}
	setup := map[string][]float64{}
	for rep := 0; rep < o.Size.SimSetupReps; rep++ {
		sp := r.Trace.begin("setup.pass", -1, int64(rep))
		for _, id := range ids {
			t0 := time.Now()
			res, err := experiments.Run(id, cfg)
			setup[id] = append(setup[id], time.Since(t0).Seconds())
			if err != nil {
				return nil, err
			}
			obs.take(&simTotals{})
			out := res.Render()
			if rep == 0 {
				ref[id] = out
				if o.WrongTruth {
					ref[id] += "\n"
				}
				continue
			}
			r.Attempted++
			if out != ref[id] {
				r.Failed++
			}
		}
		r.Trace.end(sp)
	}
	for _, id := range ids {
		r.E2E["setup_s"] += median(setup[id])
	}
	r.E2E["heap_mb"] = liveHeapMB()

	if !o.Traced {
		_, err := simPhase(o, cfg, ids, ref, r, nil)
		return r, err
	}
	base := newReport(r.Env, nil)
	if _, err := simPhase(o, cfg, ids, ref, base, nil); err != nil {
		return nil, err
	}
	r.Attempted += base.Attempted
	r.Failed += base.Failed
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	runs, err := simPhase(o, cfg, ids, ref, r, r.Trace)
	if perr := prof.stop(r); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	r.Layer["trace.overhead_fraction"] = 1 - r.E2E["ops_per_s"]/base.E2E["ops_per_s"]
	byID := map[string][]float64{}
	for _, run := range runs {
		byID[run.id] = append(byID[run.id], run.wall.Seconds())
	}
	for id, walls := range byID {
		r.Layer["experiments."+id+"_s"] = median(walls)
	}

	// One pass with a telemetry Recorder attached to every run.
	sp := r.Trace.begin("telemetry.record_pass", -1, 0)
	t0 := time.Now()
	for _, id := range ids {
		rec := telemetry.NewRecorder(telemetry.Config{})
		if _, err := experiments.Run(id, experiments.RunConfig{Seed: cfg.Seed, Scale: cfg.Scale, Obs: rec}); err != nil {
			return nil, err
		}
		if err := rec.Close(); err != nil {
			return nil, err
		}
	}
	r.Layer["telemetry.record_pass_s"] = time.Since(t0).Seconds()
	r.Trace.end(sp)
	return r, nil
}

// simPhase runs whole passes until o.Seconds have passed, checks every
// run against ref and fills r. cfg.Obs must be a *counterObs. It returns
// the runs it made.
func simPhase(o options, cfg experiments.RunConfig, ids []string, ref map[string]string, r *report, tr *tracer) ([]simRun, error) {
	obs := cfg.Obs.(*counterObs)
	var runs []simRun
	var tot simTotals
	passes := 0
	ph := startPhase()
	budget := time.Duration(o.Seconds * float64(time.Second))
	for passes == 0 || time.Since(ph.wall) < budget {
		pass := tr.begin("pass", -1, int64(passes))
		for i, id := range ids {
			sp := tr.begin("experiment."+id, pass, int64(passes*len(ids)+i))
			t0, c0 := time.Now(), cpuTime()
			res, err := experiments.Run(id, cfg)
			wall, cpu := time.Since(t0), cpuTime()-c0
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			obs.take(&tot)
			runs = append(runs, simRun{id: id, wall: wall, cpu: cpu, ok: res.Render() == ref[id]})
		}
		tr.end(pass)
		passes++
	}
	totals := ph.stop()

	// Each experiment's median wall and CPU time over the passes; the
	// rates and percentiles are taken over those medians, so a burst of
	// load from outside the process moves them less.
	walls, cpus := map[string][]float64{}, map[string][]float64{}
	var failed int64
	for _, run := range runs {
		walls[run.id] = append(walls[run.id], ms(run.wall))
		cpus[run.id] = append(cpus[run.id], ms(run.cpu))
		if !run.ok {
			failed++
		}
	}
	var medWall []float64
	var passMs, passCPU float64
	for _, id := range ids {
		w := median(walls[id])
		medWall = append(medWall, w)
		passMs += w
		passCPU += median(cpus[id])
	}
	n := int64(len(runs))
	r.Attempted += n
	r.Failed += failed
	r.E2E["ops_per_s"] = float64(len(ids)) / (passMs / 1e3)
	r.E2E["cpu_ms_per_op"] = passCPU / float64(len(ids))
	r.E2E["op_p50_ms"] = quantile(medWall, 0.50)
	r.E2E["op_p99_ms"] = quantile(medWall, 0.99)
	r.E2E["alloc_kb_per_op"] = totals.AllocBytes / 1024 / float64(n)
	r.Layer["runtime.gc_cpu_fraction"] = totals.GCFraction
	r.E2E["wire_bytes_per_op"] = tot.bytes / float64(n)
	r.extra("passes", "count", float64(passes))
	r.extra("inter_as_byte_fraction", "ratio", tot.interBytes/tot.bytes)
	if tr != nil {
		p := float64(passes)
		r.Layer["transport.sim_msgs_per_pass"] = tot.msgs / p
		r.Layer["transport.sim_inter_as_byte_fraction"] = tot.interBytes / tot.bytes
		r.Layer["sim.kernel_events_per_pass"] = tot.events / p
	}
	return runs, nil
}

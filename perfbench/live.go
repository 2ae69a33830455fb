package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"unap2p/internal/livenode"
	"unap2p/internal/megascale"
	"unap2p/internal/nettransport"
	"unap2p/internal/underlay"
)

// liveClients is the closed loop's client count: one per CPU of the
// reference 2-CPU machine.
const liveClients = 2

// cluster is an in-process live cluster on loopback UDP.
type cluster struct {
	nodes []*livenode.Node
	ids   []underlay.HostID // the ids the harness booted: its ground truth
}

// bootCluster starts n nodes of one overlay with the node defaults
// (250 ms RPC timeout, 500 ms ping interval), joins them through node 0
// and waits until every address book holds all n members.
func bootCluster(overlay string, n int) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < n; i++ {
		id := underlay.HostID(i)
		node, err := livenode.StartRetry(livenode.Config{ID: id, Overlay: overlay}, 5)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, node)
		c.ids = append(c.ids, id)
		if i > 0 {
			if err := node.Join(c.nodes[0].Net().LocalAddr().String()); err != nil {
				c.close()
				return nil, fmt.Errorf("join node %d: %w", i, err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !c.converged() {
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("%s cluster of %d did not converge in 10s", overlay, n)
		}
		// A short poll: the joins take a few milliseconds in all, so a
		// coarser one would round setup_s up to its period.
		time.Sleep(50 * time.Microsecond)
	}
	return c, nil
}

func (c *cluster) converged() bool {
	for _, n := range c.nodes {
		if n.Peers() != len(c.nodes) {
			return false
		}
	}
	return true
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
}

// liveCounters sums node counters over the cluster.
type liveCounters struct {
	rpcs, wireBytes        float64
	timeouts, rxBad, txErr float64
	pings, suspects, evict float64
	rttN, rttMs            float64 // Net.RTT() observations and their sum
}

func readLiveCounters(c *cluster) liveCounters {
	var lc liveCounters
	for _, n := range c.nodes {
		nc := n.Net().Counters()
		lc.rpcs += float64(nc.Value("kad:find_node"))
		lc.wireBytes += float64(nc.Value("kad:find_node_bytes") + nc.Value("kad:nodes_bytes"))
		lc.timeouts += float64(nc.Value("net_timeout"))
		lc.rxBad += float64(nc.Value("net_rx_bad"))
		lc.txErr += float64(nc.Value("net_tx_err"))
		dc := n.Detector().Counters()
		lc.pings += float64(dc.Value("ping"))
		lc.suspects += float64(dc.Value("suspect"))
		lc.evict += float64(dc.Value("evict"))
		lc.rttN += float64(n.Net().RTT().N())
		lc.rttMs += n.Net().RTT().Sum()
	}
	return lc
}

// runLiveKad runs the live-kad workload: a closed loop of blocking
// Engine.Lookup calls from liveClients goroutines against an in-process
// Kademlia cluster.
func runLiveKad(o options) (*report, error) {
	r := newReport(newEnv(
		fmt.Sprintf("closed loop, %d client goroutines, %d-node in-process cluster", liveClients, o.Size.LiveNodes),
		"loopback UDP: traffic crosses the host's loopback interface, not a real link"), newTracer(o.Traced))
	c, err := timeSetup(r, o.Size.LiveSetupReps, func() (*cluster, error) {
		return bootCluster("kademlia", o.Size.LiveNodes)
	}, (*cluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	r.E2E["heap_mb"] = liveHeapMB()

	if !o.Traced {
		livePhase(o, c, r, nil)
		return r, nil
	}

	base := newReport(r.Env, nil)
	livePhase(o, c, base, nil)
	r.Attempted, r.Failed = base.Attempted, base.Failed

	var frames atomic.Int64
	for _, n := range c.nodes {
		n.Net().SetDropRx(func(*nettransport.Frame) bool { frames.Add(1); return false })
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	wall := livePhase(o, c, r, r.Trace)
	if err := prof.stop(r); err != nil {
		return nil, err
	}
	for _, n := range c.nodes {
		n.Net().SetDropRx(nil)
	}
	r.Layer["nettransport.frames_rx_per_s"] = float64(frames.Load()) / wall.Seconds()
	r.Layer["trace.overhead_fraction"] = 1 - r.E2E["ops_per_s"]/base.E2E["ops_per_s"]

	var names float64
	for _, n := range c.nodes {
		names += float64(len(n.Net().Counters().Names()))
	}
	r.Layer["nettransport.counter_names"] = names / float64(len(c.nodes))
	if r.Layer["nettransport.codec_ns_per_frame"], err = codecNs(o.Size.CodecReps); err != nil {
		return nil, err
	}
	r.Layer["telemetry.snapshot_us"] = snapshotUs(c)

	if err := verifyEngines(o, r); err != nil {
		return nil, err
	}
	return r, nil
}

// livePhase runs the closed loop for o.Seconds and fills r's end-to-end
// figures over windows of a second (a tenth of a shorter phase); with a
// tracer it adds one span per lookup and the live layers' per-layer
// figures. It returns the phase's wall time.
func livePhase(o options, c *cluster, r *report, tr *tracer) time.Duration {
	type sample struct {
		at time.Time
		ms float64
	}
	type stamp struct {
		at  time.Time
		cpu time.Duration
		ops int64
	}
	seed := megascale.Mix64(uint64(o.Seed) ^ 0x11fe)
	var seq, completed atomic.Int64
	lats := make([][]sample, liveClients)
	fails := make([]int64, liveClients)
	var goroutines atomic.Int64

	before := readLiveCounters(c)
	ph := startPhase()
	span := time.Duration(o.Seconds * float64(time.Second))
	deadline := ph.wall.Add(span)

	// The sampler closes a window every second, or every tenth of a
	// phase shorter than ten seconds.
	every := span / 10
	if every > time.Second {
		every = time.Second
	}
	stamps := []stamp{{at: ph.wall, cpu: cpuTime()}}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				stamps = append(stamps, stamp{at: time.Now(), cpu: cpuTime(), ops: completed.Load()})
			}
		}
	}()

	var wg sync.WaitGroup
	for cl := 0; cl < liveClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := seq.Add(1) - 1
				target := megascale.Mix64(seed + uint64(i)*0x9e3779b97f4a7c15)
				node := c.nodes[int(i)%len(c.nodes)]
				sp := tr.begin("livenode.lookup", -1, i)
				t0 := time.Now()
				got, _ := node.Engine().Lookup(target)
				t1 := time.Now()
				completed.Add(1)
				tr.end(sp)
				lats[cl] = append(lats[cl], sample{at: t1, ms: ms(t1.Sub(t0))})
				truth := target
				if o.WrongTruth {
					truth ^= 1 << 63
				}
				if got != livenode.ClosestXor(c.ids, truth, 1)[0] {
					fails[cl]++
				}
				if i == 100 {
					goroutines.Store(int64(runtime.NumGoroutine()))
				}
			}
		}(cl)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	totals := ph.stop()
	after := readLiveCounters(c)

	windows := make([]window, len(stamps)-1)
	for k := range windows {
		windows[k] = window{ops: stamps[k+1].ops - stamps[k].ops,
			wall: stamps[k+1].at.Sub(stamps[k].at), cpu: stamps[k+1].cpu - stamps[k].cpu}
	}
	var ops, failed int64
	var lookupMs float64
	for cl := range lats {
		failed += fails[cl]
		for _, s := range lats[cl] {
			ops++
			lookupMs += s.ms
			for k := range windows {
				if s.at.Before(stamps[k+1].at) {
					windows[k].lat = append(windows[k].lat, s.ms)
					break
				}
			}
		}
	}
	r.Attempted += ops
	r.Failed += failed
	totals.fill(r, ops, windows)
	r.E2E["wire_bytes_per_op"] = (after.wireBytes - before.wireBytes) / float64(ops)
	r.extra("lookup_p50_ms", "ms", r.E2E["op_p50_ms"])
	r.extra("lookup_p99_ms", "ms", r.E2E["op_p99_ms"])
	r.extra("lookup_samples", "count", float64(ops))

	if tr == nil {
		return totals.Wall
	}
	rttMs := after.rttMs - before.rttMs
	r.Layer["nettransport.rpcs_per_lookup"] = (after.rpcs - before.rpcs) / float64(ops)
	r.Layer["nettransport.rtt_mean_ms"] = rttMs / (after.rttN - before.rttN)
	r.Layer["nettransport.rpc_share_of_lookup"] = rttMs / lookupMs
	r.Layer["nettransport.timeouts"] = after.timeouts - before.timeouts
	r.Layer["nettransport.rx_bad"] = after.rxBad - before.rxBad
	r.Layer["nettransport.tx_err"] = after.txErr - before.txErr
	r.Layer["livenode.engine_self_ms_per_lookup"] = (lookupMs - rttMs) / float64(ops)
	r.Layer["livenode.fd_pings_per_s"] = (after.pings - before.pings) / totals.Wall.Seconds()
	r.Layer["livenode.goroutines"] = float64(goroutines.Load())
	r.Layer["resilience.suspects"] = after.suspects - before.suspects
	r.Layer["resilience.evictions"] = after.evict - before.evict
	return totals.Wall
}

// codecNs times AppendFrame+DecodeFrame on the workload's two frame
// shapes, a kad:find_node request and its kad:nodes reply, and returns
// the mean ns per frame.
func codecNs(reps int) (float64, error) {
	book := nettransport.NewAddressBook()
	var ids []underlay.HostID
	for i := 0; i < 8; i++ {
		id := underlay.HostID(i)
		ids = append(ids, id)
		book.Set(id, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000 + i})
	}
	req := nettransport.Frame{Kind: nettransport.KindReq, Type: "kad:find_node", From: 3, To: 7,
		ReqID: 12345, Payload: make([]byte, 8)}
	rep := nettransport.Frame{Kind: nettransport.KindResp, Type: "kad:nodes", From: 7, To: 3,
		ReqID: 12345, Payload: book.EncodeIDs(ids)}
	buf := make([]byte, 0, 1024)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, f := range []*nettransport.Frame{&req, &rep} {
			var err error
			buf, err = nettransport.AppendFrame(buf[:0], f)
			if err == nil {
				_, err = nettransport.DecodeFrame(buf)
			}
			if err != nil {
				return 0, fmt.Errorf("codec round trip of %s: %w", f.Type, err)
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(2*reps), nil
}

// snapshotUs times Registry.Snapshot on every node and returns the
// median in microseconds.
func snapshotUs(c *cluster) float64 {
	var us []float64
	for rep := 0; rep < 20; rep++ {
		for _, n := range c.nodes {
			t0 := time.Now()
			n.Registry().Snapshot()
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(us)
}

// verifyEngines is the traced run's live verification pass: a cluster
// of each engine, one lookup from every node, each checked against
// ground truth over the ids the harness booted. Lookups that miss are
// reported as measured.
func verifyEngines(o options, r *report) error {
	seed := megascale.Mix64(uint64(o.Seed) ^ 0x5e1f)
	for _, overlay := range []string{"kademlia", "chord", "gnutella"} {
		c, err := bootCluster(overlay, o.Size.VerifyNodes)
		if err != nil {
			return err
		}
		n := len(c.nodes)
		ok := make([]bool, n)
		lat := make([]float64, n)
		var wg sync.WaitGroup
		for cl := 0; cl < liveClients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for i := cl; i < n; i += liveClients {
					target := megascale.Mix64(seed + uint64(i))
					sp := r.Trace.begin("verify."+overlay+".lookup", -1, int64(i))
					t0 := time.Now()
					got, _ := c.nodes[i].Engine().Lookup(target)
					lat[i] = ms(time.Since(t0))
					r.Trace.end(sp)
					ok[i] = got == engineTruth(overlay, c.ids, target)
				}
			}(cl)
		}
		wg.Wait()
		c.close()
		var good float64
		for _, v := range ok {
			if v {
				good++
			}
		}
		r.Layer["livenode."+overlay+".verified_ratio"] = good / float64(n)
		r.Layer["livenode."+overlay+".lookup_ms"] = median(lat)
	}
	return nil
}

// engineTruth is the member a lookup for target must resolve to, over
// the booted ids: XOR-closest (Kademlia), ring successor (Chord), or the
// member the Gnutella engine names as the flood's target.
func engineTruth(overlay string, ids []underlay.HostID, target uint64) underlay.HostID {
	switch overlay {
	case "kademlia":
		return livenode.ClosestXor(ids, target, 1)[0]
	case "chord":
		id, _ := livenode.RingSuccessor(ids, target)
		return id
	}
	return ids[target%uint64(len(ids))]
}

package main

import (
	"fmt"
	"strings"
	"time"

	"unap2p/internal/megascale"
	"unap2p/internal/overlay/chord"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// megaShards is the sharded kernel's K: one shard per CPU of the
// reference 2-CPU machine.
const megaShards = 2

// blockLen is the sim time one block of ops is spread over.
const blockLen = 60_000 * sim.Millisecond

// megaWorld is the exp-megascale world: a transit-stub underlay with
// precomputed routes, a SoA peer table, a K-shard kernel with a sharded
// net, churn, and either compact Kademlia + Chord or compact Gnutella.
type megaWorld struct {
	pt    *underlay.PeerTable
	part  *underlay.Partition
	sk    *sim.ShardedKernel
	snet  *transport.ShardedNet
	kad   *kademlia.CompactDHT
	ring  *chord.CompactRing
	flood *gnutella.CompactFlood
}

// buildMega builds the world for seed exactly as exp-megascale builds
// one point (same topology sizing, placement, partition and churn). It
// records each layer's build time and, in a traced run, the heap each
// overlay retains once built and bootstrapped.
func buildMega(o options, flood bool, r *report) *megaWorld {
	peers := o.Size.Peers
	seed := uint64(o.Seed)*0x9e3779b97f4a7c15 + uint64(peers)
	tr := r.Trace
	timed := func(name string, metric string, fn func()) {
		sp := tr.begin(name, -1, 0)
		t0 := time.Now()
		fn()
		r.Layer[metric] = time.Since(t0).Seconds()
		tr.end(sp)
	}

	stubs := peers / 2000
	if stubs < 8 {
		stubs = 8
	}
	transits := stubs / 16
	if transits < 2 {
		transits = 2
	}
	var net *underlay.Network
	timed("topology.build", "topology.build_s", func() {
		src := sim.NewSource(o.Seed).Fork("megascale")
		net = topology.TransitStub(topology.TransitStubConfig{
			Config:          topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
			Transits:        transits,
			Stubs:           stubs,
			MultihomeProb:   0.2,
			StubPeeringProb: 0.1,
		})
	})
	timed("underlay.routes", "underlay.routes_s", net.ComputeRoutes)

	w := &megaWorld{}
	timed("underlay.peer_table", "underlay.peer_table_s", func() {
		var stubASes []int
		for _, a := range net.ASes() {
			if a.Kind == underlay.LocalISP {
				stubASes = append(stubASes, a.ID)
			}
		}
		w.pt = underlay.NewPeerTable(net, peers)
		for i := 0; i < peers; i++ {
			h := megascale.Mix64(seed ^ uint64(i)<<1)
			as := stubASes[int(h%uint64(len(stubASes)))]
			w.pt.AddPeer(as, sim.Duration(2+h>>32%8))
		}
		w.part = underlay.PartitionASes(net.NumASes(),
			func(as int) int { return w.pt.PeersPerAS()[int32(as)] }, megaShards)
	})
	window := underlay.MinCrossShardLatency(w.pt, w.part)
	if window <= 0 {
		window = 10
	}
	w.sk = sim.NewSharded(w.part.NumShards(), window)
	w.snet = transport.NewShardedNet(net, w.pt, w.part, w.sk, nil)

	// Each overlay registers its own request/reply classes, is built and
	// bootstrapped; the heap it retains is measured across both.
	boot := func(name string, build func(req, rep int) megascale.CompactOverlay) {
		var before float64
		if o.Traced {
			before = liveHeapMB()
		}
		req := w.snet.RegisterClass(name + ":req")
		rep := w.snet.RegisterClass(name + ":rep")
		timed("overlay."+name+".bootstrap", "overlay."+name+".bootstrap_s", func() {
			build(req, rep).Bootstrap(seed ^ 0x5eed)
		})
		if o.Traced {
			r.Layer["overlay."+name+".heap_mb"] = liveHeapMB() - before
		}
	}
	if flood {
		boot("gnutella", func(req, rep int) megascale.CompactOverlay {
			w.flood = gnutella.NewCompactFlood(w.snet, gnutella.DefaultCompactConfig(), seed^0xd417, req, rep)
			return w.flood
		})
	} else {
		boot("kademlia", func(req, rep int) megascale.CompactOverlay {
			w.kad = kademlia.NewCompact(w.snet, kademlia.DefaultCompactConfig(), seed^0xd417, req, rep)
			return w.kad
		})
		boot("chord", func(req, rep int) megascale.CompactOverlay {
			w.ring = chord.NewCompactRing(w.snet, chord.DefaultCompactConfig(), seed^0xd417, req, rep)
			return w.ring
		})
	}
	// ~20% of peers cycle with 5-minute sessions and 2-minute absences,
	// as in exp-megascale.
	megascale.AttachChurn(w.snet, seed^0xc42, megascale.ChurnConfig{
		Frac: 5, MeanOn: 300_000 * sim.Millisecond, MeanOff: 120_000 * sim.Millisecond,
	})
	return w
}

// megaOp is one issued request and, once done, its outcome. It is
// written only on the origin's shard.
type megaOp struct {
	kind   uint8 // opKad, opChord, opFlood
	origin underlay.PeerID
	key    uint64 // lookup target, or the flood's request seed
	done   bool
	ok     bool   // flood: a hit came back
	best   uint64 // node id the lookup converged on; flood: the hit's peer
	hops   int
	simLat sim.Duration
	wall   time.Duration
	window int // index of the block during which the op completed
}

const (
	opKad = iota
	opChord
	opFlood
)

// runMega runs mega-dht (flood=false) or mega-flood (flood=true).
func runMega(o options, flood bool) (*report, error) {
	r := newReport(newEnv(
		fmt.Sprintf("sharded kernel K=%d, one process; ops issued on a fixed sim-time schedule (open loop in sim time)", megaShards),
		"simulated underlay; wall time is simulator speed"), newTracer(o.Traced))

	w, err := timeSetup(r, o.Size.MegaSetupReps, func() (*megaWorld, error) {
		return buildMega(o, flood, r), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.E2E["heap_mb"] = liveHeapMB()

	if o.Traced {
		// An untraced pass first, so the traced pass's cost shows as
		// overhead against it.
		base := newReport(r.Env, nil)
		megaPhase(o, w, flood, base, nil)
		r.Attempted, r.Failed = base.Attempted, base.Failed
		prof, err := startProfile()
		if err != nil {
			return nil, err
		}
		megaPhase(o, w, flood, r, r.Trace)
		if err := prof.stop(r); err != nil {
			return nil, err
		}
		r.Layer["trace.overhead_fraction"] = 1 - r.E2E["ops_per_s"]/base.E2E["ops_per_s"]
		return r, nil
	}
	megaPhase(o, w, flood, r, nil)
	return r, nil
}

// megaPhase issues blocks of seeded ops until the wall budget is spent,
// drains them, and checks every op against the harness's ground truth.
// With a tracer it also records one span per epoch and the sim layer's
// counters.
func megaPhase(o options, w *megaWorld, flood bool, r *report, tr *tracer) {
	sk := w.sk
	shards := sk.NumShards()
	perShard := make([][]*megaOp, shards)
	doneOn := make([]int64, shards) // written only by its own shard

	seed := megascale.Mix64(uint64(o.Seed) ^ 0xb16b00b5)
	var counter uint64
	next := func() uint64 { counter++; return megascale.Mix64(seed + counter*0x9e3779b97f4a7c15) }

	var issued int64
	block := 0 // written between kernel runs only; ops read it on completion
	sumDone := func() int64 {
		var n int64
		for _, d := range doneOn {
			n += d
		}
		return n
	}
	schedule := func(blockStart sim.Time) {
		for i := 0; i < o.Size.BlockOps; i++ {
			op := &megaOp{origin: underlay.PeerID(next() % uint64(w.pt.Len())), key: next()}
			at := blockStart + sim.Duration(next()%uint64(blockLen))
			switch {
			case flood:
				op.kind = opFlood
			case i%2 == 0:
				op.kind = opKad
			default:
				op.kind = opChord
			}
			s := w.snet.ShardOf(op.origin)
			perShard[s] = append(perShard[s], op)
			issued++
			shard := sk.Shard(s)
			shard.At(at, func() { startMegaOp(w, shard, op, &doneOn[s], &block) })
		}
	}

	st0 := sk.Stats()
	net0 := w.snet.Stats()
	var epochWall []float64
	if tr != nil {
		last := time.Now()
		sk.OnBarrier = func(now sim.Time) {
			t := time.Now()
			epochWall = append(epochWall, float64(t.Sub(last).Nanoseconds())/1e3)
			tr.add("sim.epoch", -1, int64(len(epochWall)), last, t)
			last = t
		}
	}

	ph := startPhase()
	budget := time.Duration(o.Seconds * float64(time.Second))
	blockStart := sk.Now()
	var windows []window
	for ; block == 0 || time.Since(ph.wall) < budget; block++ {
		sp := tr.begin("block", -1, int64(block))
		schedule(blockStart)
		blockStart += blockLen
		t0, c0, d0 := time.Now(), cpuTime(), sumDone()
		sk.Run(blockStart)
		windows = append(windows, window{ops: sumDone() - d0, wall: time.Since(t0), cpu: cpuTime() - c0})
		tr.end(sp)
	}
	// Drain: run on until every issued op has reported back (checked at
	// barriers, the only point cross-shard state is readable).
	sp := tr.begin("drain", -1, 0)
	prevHook := sk.OnBarrier
	sk.OnBarrier = func(now sim.Time) {
		if prevHook != nil {
			prevHook(now)
		}
		if sumDone() == issued {
			sk.Stop()
		}
	}
	sk.Run(blockStart + blockLen)
	sk.OnBarrier = nil
	tr.end(sp)
	totals := ph.stop()

	// Verify every op against ground truth computed here, outside the
	// timed window.
	var failed, done int64
	var kadLat, chordLat []float64
	var kadHops, chordHops, hits, hitHops float64
	var nKad, nChord float64
	for _, ops := range perShard {
		for _, op := range ops {
			if !op.done {
				failed++
				continue
			}
			done++
			if op.window < len(windows) {
				windows[op.window].lat = append(windows[op.window].lat, ms(op.wall))
			}
			if !megaTruth(w, op, o.WrongTruth) {
				failed++
			}
			switch op.kind {
			case opKad:
				nKad++
				kadHops += float64(op.hops)
				kadLat = append(kadLat, float64(op.simLat))
			case opChord:
				nChord++
				chordHops += float64(op.hops)
				chordLat = append(chordLat, float64(op.simLat))
			case opFlood:
				if op.ok {
					hits++
					hitHops += float64(op.hops)
				}
			}
		}
	}
	r.Attempted += issued
	r.Failed += failed
	totals.fill(r, done, windows)

	net1 := w.snet.Stats()
	bytes := float64(net1.Bytes - net0.Bytes)
	intra := float64(net1.IntraBytes - net0.IntraBytes)
	msgs := float64(net1.Msgs - net0.Msgs)
	r.E2E["wire_bytes_per_op"] = bytes / float64(done)
	interAS := 1 - intra/bytes
	r.extra("inter_as_byte_fraction", "ratio", interAS)
	if flood {
		r.extra("hit_ratio", "ratio", hits/float64(done))
	} else {
		r.extra("sim_lookup_p50_ms", "ms", quantile(append(append([]float64(nil), kadLat...), chordLat...), 0.5))
	}

	if tr == nil {
		return
	}
	// Per-layer figures of the traced pass.
	fd := float64(done)
	r.Layer["transport.inter_as_byte_fraction"] = interAS
	r.Layer["transport.msgs_per_op"] = msgs / fd
	r.Layer["transport.cross_shard_msg_fraction"] = float64(net1.CrossMsgs-net0.CrossMsgs) / msgs
	for i, c := range net1.PerClass {
		name := "transport." + strings.ReplaceAll(c.Class, ":", "_") + ".msgs_per_op"
		r.Layer[name] = float64(c.Msgs-net0.PerClass[i].Msgs) / fd
	}
	if flood {
		r.Layer["overlay.gnutella.hit_ratio"] = hits / fd
		if hits > 0 {
			r.Layer["overlay.gnutella.first_hit_hops"] = hitHops / hits
		}
		r.Layer["overlay.gnutella.coverage"] = w.flood.HealthStats()["coverage"]
	} else {
		r.Layer["overlay.kademlia.hops"] = kadHops / nKad
		r.Layer["overlay.chord.hops"] = chordHops / nChord
		r.Layer["overlay.kademlia.sim_lookup_p50_ms"] = median(kadLat)
		r.Layer["overlay.chord.sim_lookup_p50_ms"] = median(chordLat)
	}
	st1 := sk.Stats()
	r.Layer["sim.epochs_per_op"] = float64(st1.Epochs-st0.Epochs) / fd
	r.Layer["sim.events_per_op"] = float64(st1.Processed-st0.Processed) / fd
	r.Layer["sim.cross_events_per_op"] = float64(st1.CrossEvents-st0.CrossEvents) / fd
	r.Layer["sim.late_events"] = float64(st1.LateEvents - st0.LateEvents)
	var maxProc, sumProc float64
	for i, s := range st1.Shards {
		p := float64(s.Processed - st0.Shards[i].Processed)
		sumProc += p
		if p > maxProc {
			maxProc = p
		}
		if q := float64(s.MaxQueue); q > r.Layer["sim.max_queue"] {
			r.Layer["sim.max_queue"] = q
		}
	}
	r.Layer["sim.shard_imbalance"] = maxProc / (sumProc / float64(len(st1.Shards)))
	r.Layer["sim.epoch_wall_us_p50"] = quantile(epochWall, 0.50)
	r.Layer["sim.epoch_wall_us_p99"] = quantile(epochWall, 0.99)
}

// startMegaOp issues op on its origin's shard and records the outcome
// there when the overlay reports back.
func startMegaOp(w *megaWorld, shard *sim.Shard, op *megaOp, done *int64, block *int) {
	t0, s0 := time.Now(), shard.Now()
	finish := func(best uint64, ok bool, hops int) {
		op.done, op.best, op.ok, op.hops = true, best, ok, hops
		op.simLat = shard.Now() - s0
		op.wall = time.Since(t0)
		op.window = *block
		*done++
	}
	switch op.kind {
	case opKad:
		w.kad.Lookup(op.origin, kademlia.NodeID(op.key), func(res kademlia.CompactResult) {
			finish(uint64(res.Best), res.Exact, res.Hops)
		})
	case opChord:
		w.ring.Lookup(op.origin, chord.ID(op.key), func(res megascale.Result) {
			finish(uint64(w.ring.ID(res.Best)), res.OK, res.Hops)
		})
	case opFlood:
		w.flood.Query(op.origin, op.key, func(res megascale.Result) {
			finish(uint64(res.Best), res.OK, res.Hops)
		})
	}
}

// megaTruth checks one finished op against ground truth the harness
// computes from the targets it chose: the globally XOR-closest id for
// Kademlia, the exact ring predecessor for Chord, and for a flood that a
// reported hit was reachable at all (hits are a subset of the static
// potential hits). wrong swaps in a deliberately wrong truth.
func megaTruth(w *megaWorld, op *megaOp, wrong bool) bool {
	key := op.key
	if wrong {
		key ^= 1 << 63
	}
	switch op.kind {
	case opKad:
		return op.best == uint64(w.kad.ClosestGlobal(kademlia.NodeID(key)))
	case opChord:
		return op.best == uint64(w.ring.PredecessorGlobal(chord.ID(key)))
	default:
		return !op.ok || w.flood.PotentialHit(op.origin, floodKey(key))
	}
}

// floodKey is the keyword key CompactFlood.Query derives from a request
// seed.
func floodKey(seed uint64) uint64 { return megascale.Mix64(seed ^ 0x6e7e11a) }

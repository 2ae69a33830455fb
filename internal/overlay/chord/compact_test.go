package chord

import (
	"reflect"
	"testing"

	"unap2p/internal/megascale"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// buildCompactRing wires a small sharded stack: star underlay, peer
// table, partition, kernel, transport, ring.
func buildCompactRing(t testing.TB, perAS, K int, seed uint64, aware bool) (*CompactRing, *transport.ShardedNet) {
	t.Helper()
	u := underlay.New()
	transit := u.AddAS(underlay.TransitISP, 2)
	for i := 0; i < 4; i++ {
		stub := u.AddAS(underlay.LocalISP, 4)
		u.ConnectTransit(stub, transit, 10)
	}
	u.ComputeRoutes()
	pt := underlay.NewPeerTable(u, 4*perAS)
	for as := 1; as <= 4; as++ {
		for j := 0; j < perAS; j++ {
			pt.AddPeer(as, sim.Duration(2+j%4))
		}
	}
	part := underlay.PartitionASes(u.NumASes(),
		func(as int) int { return pt.PeersPerAS()[int32(as)] }, K)
	window := underlay.MinCrossShardLatency(pt, part)
	if window <= 0 {
		window = 5
	}
	sk := sim.NewSharded(K, window)
	net := transport.NewShardedNet(u, pt, part, sk, []string{"req", "rep"})
	cfg := DefaultCompactConfig()
	cfg.Aware = aware
	c := NewCompactRing(net, cfg, seed, 0, 1)
	c.Bootstrap(seed ^ 0x5eed)
	return c, net
}

// TestCompactRingGroundTruth brute-forces the ring predecessor and
// successor for a spread of targets.
func TestCompactRingGroundTruth(t *testing.T) {
	c, net := buildCompactRing(t, 16, 1, 3, false)
	n := net.Peers().Len()
	ids := make([]uint64, n)
	for p := 0; p < n; p++ {
		ids[p] = uint64(c.ID(underlay.PeerID(p)))
	}
	for i := 0; i < 200; i++ {
		target := megascale.Mix64(uint64(i) ^ 0xfeed)
		var pred, succ uint64
		pd, sd := ^uint64(0), ^uint64(0)
		for _, id := range ids {
			if d := megascale.CWDist(id, target-1); d < pd {
				pred, pd = id, d
			}
			if d := megascale.CWDist(target, id); d < sd {
				succ, sd = id, d
			}
		}
		if got := uint64(c.PredecessorGlobal(ID(target))); got != pred {
			t.Fatalf("target %x: PredecessorGlobal %x, brute %x", target, got, pred)
		}
		if got := uint64(c.SuccessorGlobal(ID(target))); got != succ {
			t.Fatalf("target %x: SuccessorGlobal %x, brute %x", target, got, succ)
		}
	}
}

// TestCompactRingLookupExact runs lookups from every peer on a static
// (no churn) ring and requires every one to converge on the exact ring
// predecessor — the acceptance bar for the Chord port.
func TestCompactRingLookupExact(t *testing.T) {
	c, net := buildCompactRing(t, 32, 2, 11, false)
	pt := net.Peers()
	for p := 0; p < pt.Len(); p++ {
		p := underlay.PeerID(p)
		target := ID(megascale.Mix64(uint64(p) ^ 0xabcd))
		net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(int(p)%16), func() {
			c.Lookup(p, target, func(r megascale.Result) {
				if uint64(c.ID(r.Best)) != uint64(c.PredecessorGlobal(target)) != !r.OK {
					t.Errorf("peer %d: OK=%v disagrees with ground truth", r.Origin, r.OK)
				}
			})
		})
	}
	net.Kernel().Drain()
	st := c.Stats()
	if st.Done != uint64(pt.Len()) {
		t.Fatalf("completed %d of %d lookups", st.Done, pt.Len())
	}
	if rate := st.SuccessRate(); rate != 1 {
		t.Fatalf("exact rate %.4f != 1.0 on a static ring", rate)
	}
	if st.MeanHops() <= 0 {
		t.Fatal("no hops recorded")
	}
	if net.Stats().Msgs == 0 {
		t.Fatal("no transport traffic recorded")
	}
}

// TestCompactRingDeterministicAcrossK pins both halves of the kernel
// contract: each K reproduces itself bit-for-bit, and the workload-level
// outcomes (lookups done, exactness) agree between K=1 (the legacy
// single-kernel schedule) and K=4.
func TestCompactRingDeterministicAcrossK(t *testing.T) {
	run := func(K int) (megascale.Stats, transport.NetStats, sim.Time) {
		c, net := buildCompactRing(t, 24, K, 21, false)
		pt := net.Peers()
		megascale.AttachChurn(net, 77, megascale.ChurnConfig{
			Frac: 5, MeanOn: 400, MeanOff: 150,
		})
		for p := 0; p < pt.Len(); p += 3 {
			p := underlay.PeerID(p)
			net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(int(p)), func() {
				c.Query(p, 0x777^uint64(p), nil)
			})
		}
		end := net.Kernel().Run(2000)
		return c.Stats(), net.Stats(), end
	}
	s1, n1, e1 := run(1)
	s1b, n1b, e1b := run(1)
	if s1 != s1b || !reflect.DeepEqual(n1, n1b) || e1 != e1b {
		t.Fatalf("K=1 not reproducible: %+v vs %+v", s1, s1b)
	}
	s4, n4, e4 := run(4)
	s4b, n4b, e4b := run(4)
	if s4 != s4b || !reflect.DeepEqual(n4, n4b) || e4 != e4b {
		t.Fatalf("K=4 not reproducible: %+v vs %+v", s4, s4b)
	}
	if s1.Done == 0 {
		t.Fatal("no lookups completed under churn")
	}
	// K is a performance knob, not a semantic one: identical workload
	// completion, exactness within timestamp-tie tolerance.
	if s4.Done != s1.Done || s4.Started != s1.Started {
		t.Fatalf("lookup counts depend on K: %+v vs %+v", s1, s4)
	}
	dOK := int64(s4.OK) - int64(s1.OK)
	if dOK < -2 || dOK > 2 {
		t.Fatalf("exactness drifts across K: %d vs %d", s1.OK, s4.OK)
	}
}

// TestCompactRingAwareFingers checks the Aware finger fill lifts the
// fraction of same-AS fingers without hurting exactness.
func TestCompactRingAwareFingers(t *testing.T) {
	sameASFrac := func(c *CompactRing, net *transport.ShardedNet) float64 {
		pt := net.Peers()
		same, total := 0, 0
		for p := 0; p < pt.Len(); p++ {
			for j := 0; j < c.nFing; j++ {
				q := underlay.PeerID(c.fing[p*c.nFing+j])
				total++
				if pt.AS(q) == pt.AS(underlay.PeerID(p)) {
					same++
				}
			}
		}
		return float64(same) / float64(total)
	}
	plain, pnet := buildCompactRing(t, 32, 1, 5, false)
	aware, anet := buildCompactRing(t, 32, 1, 5, true)
	fp, fa := sameASFrac(plain, pnet), sameASFrac(aware, anet)
	if fa <= fp {
		t.Fatalf("aware same-AS finger fraction %.3f not above plain %.3f", fa, fp)
	}
	// Aware fingers stay inside their correctness band, so a static run
	// must still be exact.
	pt := anet.Peers()
	for p := 0; p < pt.Len(); p++ {
		p := underlay.PeerID(p)
		net := anet
		net.Kernel().Shard(net.ShardOf(p)).Schedule(0, func() {
			aware.Query(p, uint64(p)^0xbeef, nil)
		})
	}
	anet.Kernel().Drain()
	if rate := aware.Stats().SuccessRate(); rate != 1 {
		t.Fatalf("aware ring exact rate %.4f != 1.0 on a static ring", rate)
	}
}

// BenchmarkCompactChordLookup measures one warm megascale.Iter lookup on
// a 4000-peer compact ring on one shard, run to completion: candidate
// ranking at every hop, the transport sends and the kernel events.
func BenchmarkCompactChordLookup(b *testing.B) {
	c, net := buildCompactRing(b, 1000, 1, 7, false)
	n := uint64(net.Peers().Len())
	lookup := func(i int) {
		p := underlay.PeerID(megascale.Mix64(uint64(i)) % n)
		target := ID(megascale.Mix64(uint64(i) ^ 0xbe9c))
		net.Kernel().Shard(net.ShardOf(p)).Schedule(0, func() { c.Lookup(p, target, nil) })
		net.Kernel().Drain()
	}
	for i := 0; i < 200; i++ {
		lookup(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(i)
	}
}

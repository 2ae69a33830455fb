package kademlia

import (
	"testing"

	"unap2p/internal/core"
	"unap2p/internal/megascale"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func benchDHT(b testing.TB, pns bool) *DHT {
	b.Helper()
	src := sim.NewSource(1)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 25, Rand: src.Stream("topo")},
		Transits: 2, Stubs: 8,
	})
	topology.PlaceHosts(net, 15, false, 1, 5, src.Stream("place"))
	cfg := DefaultConfig()
	var sel core.Selector
	if pns {
		sel = core.RTTSelector(net)
	}
	d := New(transport.Over(net), sel, cfg, src.Stream("dht"))
	for _, h := range net.Hosts() {
		d.AddNode(h)
	}
	d.Bootstrap(4)
	return d
}

// BenchmarkLookup measures an iterative FIND_NODE on a warm 120-node DHT.
func BenchmarkLookup(b *testing.B) {
	d := benchDHT(b, false)
	probe := sim.NewSource(2).Stream("probe")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := d.Nodes()[probe.Intn(len(d.Nodes()))].Host
		d.Lookup(from, NodeID(probe.Uint64()))
	}
}

// BenchmarkLookupPNS is the same workload with proximity-filled buckets.
func BenchmarkLookupPNS(b *testing.B) {
	d := benchDHT(b, true)
	probe := sim.NewSource(2).Stream("probe")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := d.Nodes()[probe.Intn(len(d.Nodes()))].Host
		d.Lookup(from, NodeID(probe.Uint64()))
	}
}

// BenchmarkObserve measures routing-table insertion with PNS replacement.
func BenchmarkObserve(b *testing.B) {
	d := benchDHT(b, true)
	n := d.Nodes()[0]
	contacts := make([]Contact, 0, len(d.Nodes()))
	for _, other := range d.Nodes() {
		contacts = append(contacts, other.Contact)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.observe(contacts[i%len(contacts)])
	}
}

// BenchmarkCompactKademliaLookup measures one warm megascale.Iter lookup
// on a 4000-peer compact DHT on one shard, run to completion: candidate
// ranking at every hop, the transport sends and the kernel events.
func BenchmarkCompactKademliaLookup(b *testing.B) {
	d, net := buildCompact(b, 1000, 1, 7)
	n := uint64(net.Peers().Len())
	lookup := func(i int) {
		p := underlay.PeerID(megascale.Mix64(uint64(i)) % n)
		target := NodeID(megascale.Mix64(uint64(i) ^ 0xbe9c))
		net.Kernel().Shard(net.ShardOf(p)).Schedule(0, func() { d.Lookup(p, target, nil) })
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

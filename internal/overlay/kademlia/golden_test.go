package kademlia

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"unap2p/internal/churn"
	"unap2p/internal/megascale"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// checkGolden fails when got differs from the checked-in transcript at
// path, naming the first line that differs.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got, "\n")
	for i := 0; i < len(want) || i < len(lines); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(lines) {
			g = lines[i]
		}
		if w != g {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}

// simLookupTranscript renders the full outcome of a fixed Lookup, Put
// and Get script on the 120-node bench DHT: closest ids, hops, messages,
// the exact latency bits, Get results and whether each Put's origin kept
// a replica. A tenth of the hosts go down halfway, so the last phase
// routes around dead contacts.
func simLookupTranscript(tb testing.TB, pns bool) string {
	d := benchDHT(tb, pns)
	probe := sim.NewSource(3).Stream("golden")
	nodes := d.Nodes()
	pick := func() underlay.HostID { return nodes[probe.Intn(len(nodes))].Host }
	var b strings.Builder
	line := func(op string, r LookupResult) {
		fmt.Fprintf(&b, "%s hops=%d msgs=%d lat=%x found=%v value=%x closest=",
			op, r.Hops, r.Msgs, math.Float64bits(float64(r.Latency)), r.Found, r.Value)
		for _, c := range r.Closest {
			fmt.Fprintf(&b, "%x/%d,", uint64(c.ID), c.Host)
		}
		b.WriteByte('\n')
	}
	script := func() {
		for i := 0; i < 40; i++ {
			line("lookup", d.Lookup(pick(), NodeID(probe.Uint64())))
		}
		for i := 0; i < 20; i++ {
			key, from := Key(probe.Uint64()), pick()
			line("put", d.Put(from, key, []byte{byte(i)}))
			fmt.Fprintf(&b, "origin_stored=%v\n", d.Node(from).store[key] != nil)
			line("get", d.Get(pick(), key))
			line("get_missing", d.Get(pick(), Key(probe.Uint64())))
		}
	}
	script()
	for i, n := range nodes {
		if i%10 == 3 {
			n.host.Up = false
		}
	}
	script()
	return b.String()
}

// TestSimLookupGolden pins the sim Kademlia Lookup, Get and Put outcomes,
// with and without PNS, to transcripts recorded before these lookups
// ranked their candidates through megascale.Shortlist.
func TestSimLookupGolden(t *testing.T) {
	for _, pns := range []bool{false, true} {
		checkGolden(t, fmt.Sprintf("testdata/sim_lookup_pns_%v.golden", pns), simLookupTranscript(t, pns))
	}
}

// compactLookupTranscript renders Best, Hops and Exact for every lookup
// of a fixed schedule on a 3000-peer compact DHT with churn, run on K
// shards; "-" marks a lookup the horizon cut short.
func compactLookupTranscript(tb testing.TB, K int) string {
	d, net := buildCompact(tb, 750, K, 5)
	pt := net.Peers()
	drv := &churn.ShardDriver{
		Seed: 3, Table: pt, Part: net.Partition(), Sk: net.Kernel(),
		MeanOn: 400, MeanOff: 150,
		Churns: func(p underlay.PeerID) bool { return p%5 == 0 },
	}
	drv.Start()
	const lookups = 400
	res := make([]string, lookups)
	for i := 0; i < lookups; i++ {
		p := underlay.PeerID(megascale.Mix64(uint64(i)) % uint64(pt.Len()))
		target := NodeID(megascale.Mix64(uint64(i) ^ 0x901d))
		net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(i), func() {
			d.Lookup(p, target, func(r CompactResult) {
				res[i] = fmt.Sprintf("best=%x hops=%d exact=%v", uint64(r.Best), r.Hops, r.Exact)
			})
		})
	}
	net.Kernel().Run(3000)
	var b strings.Builder
	for i, r := range res {
		if r == "" {
			r = "-"
		}
		fmt.Fprintf(&b, "%d %s\n", i, r)
	}
	return b.String()
}

// TestCompactLookupGolden pins every compact Kademlia lookup outcome at
// K=1 and K=2 shards.
func TestCompactLookupGolden(t *testing.T) {
	for _, K := range []int{1, 2} {
		checkGolden(t, fmt.Sprintf("testdata/compact_lookup_k%d.golden", K), compactLookupTranscript(t, K))
	}
}

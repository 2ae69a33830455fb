package chord

import (
	"fmt"
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

// compactLookupTranscript renders Best, Hops and OK for every lookup of
// a fixed schedule on a 3000-peer compact ring with churn, run on K
// shards; "-" marks a lookup the horizon cut short.
func compactLookupTranscript(tb testing.TB, K int, aware bool) string {
	c, net := buildCompactRing(tb, 750, K, 5, aware)
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
		target := ID(megascale.Mix64(uint64(i) ^ 0x901d))
		net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(i), func() {
			c.Lookup(p, target, func(r megascale.Result) {
				res[i] = fmt.Sprintf("best=%d hops=%d ok=%v", r.Best, r.Hops, r.OK)
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

// TestCompactRingLookupGolden pins every compact Chord lookup outcome at
// K=1 and K=2 shards, with plain and proximity-filled fingers.
func TestCompactRingLookupGolden(t *testing.T) {
	for _, K := range []int{1, 2} {
		for _, aware := range []bool{false, true} {
			path := fmt.Sprintf("testdata/compact_lookup_k%d_aware_%v.golden", K, aware)
			checkGolden(t, path, compactLookupTranscript(t, K, aware))
		}
	}
}

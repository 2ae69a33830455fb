package livenode

import (
	"fmt"
	"testing"
	"time"

	"unap2p/internal/megascale"
	"unap2p/internal/underlay"
)

var benchSink underlay.HostID

// BenchmarkLiveClosestXor ranks a find_node-sized member list (16 ids)
// and a late lookup's candidate list (136 ids) for one target, keeping
// the closest one (the ground-truth pick) or eight (a find_node reply).
func BenchmarkLiveClosestXor(b *testing.B) {
	for _, n := range []int{16, 136} {
		ids := make([]underlay.HostID, n)
		for i := range ids {
			ids[i] = underlay.HostID(i)
		}
		for _, k := range []int{1, 8} {
			b.Run(fmt.Sprintf("ids=%d/k=%d", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink += ClosestXor(ids, megascale.Mix64(uint64(i)), k)[0]
				}
			})
		}
	}
}

// BenchmarkLiveKademliaLookup is one iterative Kademlia lookup on a
// 16-node in-process cluster over loopback UDP, issued from each node in
// turn.
func BenchmarkLiveKademliaLookup(b *testing.B) {
	const n = 16
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := StartRetry(Config{ID: underlay.HostID(i), Overlay: "kademlia"}, 5)
		if err != nil {
			b.Skipf("start node %d: %v", i, err)
		}
		defer node.Close()
		nodes[i] = node
		if i > 0 {
			if err := node.Join(nodes[0].Net().LocalAddr().String()); err != nil {
				b.Fatalf("join node %d: %v", i, err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, node := range nodes {
		for node.Peers() != n {
			if time.Now().After(deadline) {
				b.Fatal("cluster did not converge")
			}
			time.Sleep(time.Millisecond)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _ := nodes[i%n].Engine().Lookup(megascale.Mix64(uint64(i)))
		benchSink += got
	}
}

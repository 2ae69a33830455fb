package livenode

import (
	"net"
	"strings"
	"testing"
	"time"

	"unap2p/internal/underlay"
)

// requireSockets skips the test with a reason when the environment
// forbids binding localhost UDP sockets (restricted sandboxes), instead
// of failing every live test with an opaque bind error.
func requireSockets(t *testing.T) {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("environment forbids UDP sockets: %v", err)
	}
	c.Close()
}

// waitBudget derives a polling deadline from the test's own -timeout
// budget (minus grace for teardown), falling back to def when none is
// set — bounded waits without a magic constant racing the harness.
func waitBudget(t *testing.T, def time.Duration) time.Time {
	t.Helper()
	if d, ok := t.Deadline(); ok {
		if budget := time.Until(d) - 5*time.Second; budget > 0 && budget < def {
			return time.Now().Add(budget)
		}
	}
	return time.Now().Add(def)
}

// bootCluster starts n nodes of one overlay in this process on ephemeral
// localhost ports, joins them all through node 0, and waits until every
// address book holds the full membership.
func bootCluster(t *testing.T, overlay string, n int) []*Node {
	t.Helper()
	requireSockets(t)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := StartRetry(Config{
			ID:           underlay.HostID(i),
			Overlay:      overlay,
			PingInterval: 100 * time.Millisecond,
			Timeout:      150 * time.Millisecond,
			Logf:         t.Logf,
		}, 5)
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = node
		t.Cleanup(func() { node.Close() })
		if i > 0 {
			if err := node.Join(nodes[0].Net().LocalAddr().String()); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
	}
	awaitCluster(t, "full address books", func() bool {
		for _, node := range nodes {
			if node.Peers() != n {
				return false
			}
		}
		return true
	})
	return nodes
}

func awaitCluster(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := waitBudget(t, 10*time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterLookups is the in-process half of the ISSUE acceptance
// criterion: for each overlay, a 5-node cluster must complete ≥95% of
// verified lookups. (The same floor is enforced across OS processes by
// internal/integration's net-smoke test.)
func TestClusterLookups(t *testing.T) {
	const clusterSize, lookups = 5, 40
	for _, overlay := range []string{"kademlia", "chord", "gnutella"} {
		t.Run(overlay, func(t *testing.T) {
			t.Parallel()
			nodes := bootCluster(t, overlay, clusterSize)
			ok, total := 0, 0
			for _, node := range nodes {
				ok += node.RunLookups(lookups)
				total += lookups
			}
			if floor := total * 95 / 100; ok < floor {
				t.Fatalf("%s: %d/%d lookups verified, floor %d", overlay, ok, total, floor)
			}
			t.Logf("%s: %d/%d lookups verified", overlay, ok, total)
		})
	}
}

// TestKademliaLookupNeverQueriesSelf pins that a live lookup enters its
// own node as already queried: alone in its cluster, a node resolves
// every target to itself without serving a single find_node.
func TestKademliaLookupNeverQueriesSelf(t *testing.T) {
	node := bootCluster(t, "kademlia", 1)[0]
	if ok := node.RunLookups(8); ok != 8 {
		t.Fatalf("%d/8 lookups verified on a one-node cluster", ok)
	}
	if served := node.core.Msgs.Snapshot()["kad_served"]; served != 0 {
		t.Fatalf("node served %d find_node requests to itself", served)
	}
}

// TestClusterDetectsKill boots a kademlia cluster, kills one node, and
// requires every survivor's failure detector to suspect and then evict
// it — the real-socket version of the chaos-harness eviction test, with
// actual missed datagrams standing in for injected faults.
func TestClusterDetectsKill(t *testing.T) {
	nodes := bootCluster(t, "kademlia", 4)
	victim := nodes[len(nodes)-1]
	victimID := victim.Net().Self()

	// Detectors need at least one ping round against the live victim so
	// the watches exist before the kill.
	awaitCluster(t, "watches established", func() bool {
		for _, node := range nodes[:len(nodes)-1] {
			if node.Detector().Counters().Get("ping").Value() == 0 {
				return false
			}
		}
		return true
	})
	victim.Close()

	awaitCluster(t, "survivors evict the victim", func() bool {
		for _, node := range nodes[:len(nodes)-1] {
			if node.Detector().Counters().Get("evict").Value() == 0 {
				return false
			}
		}
		return true
	})
	for i, node := range nodes[:len(nodes)-1] {
		if node.Detector().Counters().Get("suspect").Value() == 0 {
			t.Errorf("node %d evicted without suspecting first", i)
		}
		if !node.Engine().(*kademlia).c.Dead(victimID) {
			t.Errorf("node %d: healer did not mark %d dead", i, victimID)
		}
		if _, still := node.Net().Book().Get(victimID); still {
			t.Errorf("node %d: victim still in the address book", i)
		}
		// The survivors' overlay must keep answering lookups.
		if ok := node.RunLookups(10); ok < 9 {
			t.Errorf("node %d: only %d/10 lookups verified after eviction", i, ok)
		}
	}
}

// TestClusterMetricsEndpoint boots one node with a live /metrics port
// and checks the resilience counters are exposed in Prometheus format.
func TestClusterMetricsEndpoint(t *testing.T) {
	nodes := bootCluster(t, "chord", 3)
	node, err := StartRetry(Config{
		ID:           7,
		Overlay:      "chord",
		MetricsAddr:  "127.0.0.1:0",
		PingInterval: 100 * time.Millisecond,
		Timeout:      150 * time.Millisecond,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	if err := node.Join(nodes[0].Net().LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	awaitCluster(t, "pings flowing", func() bool {
		return node.Detector().Counters().Get("ping").Value() > 0
	})

	snap := node.Registry().Snapshot()
	if snap.Counters["resilience:ping"] == 0 {
		t.Fatalf("snapshot has no resilience:ping counter: %v", snap.Counters)
	}
	if snap.Gauges["peers"] != 4 {
		t.Fatalf("peers gauge = %v, want 4", snap.Gauges["peers"])
	}
	text := snap.PrometheusText()
	for _, series := range []string{"unap2p_resilience_ping_total", "unap2p_peers", "unap2p_rtt_ms_bucket"} {
		if !strings.Contains(text, series) {
			t.Fatalf("prometheus text missing %s:\n%.400s", series, text)
		}
	}
	if node.MetricsAddr() == "" {
		t.Fatal("MetricsAddr empty with metrics enabled")
	}
}

func TestNodeRejectsUnknownOverlay(t *testing.T) {
	requireSockets(t)
	if _, err := Start(Config{ID: 0, Overlay: "pastry"}); err == nil {
		t.Fatal("Start accepted an unknown overlay")
	}
	if _, err := Start(Config{ID: 0, Overlay: "kademlia", SuspectAfter: 6, EvictAfter: 3}); err == nil {
		t.Fatal("Start accepted EvictAfter < SuspectAfter")
	}
}

func TestKeyHelpers(t *testing.T) {
	members := []underlay.HostID{0, 1, 2, 3, 4}
	// ClosestXor(…, key(id), 1) must return id itself.
	for _, id := range members {
		if got := ClosestXor(members, NodeKey(id), 1)[0]; got != id {
			t.Fatalf("ClosestXor(key(%d)) = %d", id, got)
		}
	}
	// RingSuccessor at a member's exact key is that member.
	for _, id := range members {
		got, ok := RingSuccessor(members, NodeKey(id))
		if !ok || got != id {
			t.Fatalf("RingSuccessor(key(%d)) = %d, %v", id, got, ok)
		}
	}
	// Past the largest key the ring wraps to the smallest.
	var maxID, minID underlay.HostID
	for _, id := range members {
		if NodeKey(id) > NodeKey(maxID) {
			maxID = id
		}
		if NodeKey(id) < NodeKey(minID) {
			minID = id
		}
	}
	if got, _ := RingSuccessor(members, NodeKey(maxID)+1); got != minID {
		t.Fatalf("wrap successor = %d, want %d", got, minID)
	}
	// Keys are distinct across a wide id range (the convention every
	// engine relies on).
	seen := map[uint64]underlay.HostID{}
	for id := underlay.HostID(0); id < 10000; id++ {
		k := NodeKey(id)
		if prev, dup := seen[k]; dup {
			t.Fatalf("NodeKey collision: ids %d and %d", prev, id)
		}
		seen[k] = id
	}
}

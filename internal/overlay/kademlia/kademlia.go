// Package kademlia implements a Kademlia DHT over the simulated underlay:
// XOR metric, k-buckets, iterative α-parallel lookups, and STORE/FIND —
// plus the proximity neighbor selection (PNS) of Kaune et al. ("Embracing
// the peer next door: Proximity in Kademlia", IEEE P2P 2008 — [17] in the
// paper), which fills k-buckets with underlay-close contacts to cut
// inter-AS DHT traffic without hurting hop counts.
//
// IDs are 64-bit (a documented down-scaling of Kademlia's 160-bit space;
// the metric's properties are bit-width independent and 64 bits are ample
// for simulated populations).
package kademlia

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"unap2p/internal/core"
	"unap2p/internal/megascale"
	"unap2p/internal/metrics"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// NodeID is a position in the 64-bit XOR keyspace.
type NodeID uint64

// Key is a content key in the same space.
type Key = NodeID

// Distance returns the XOR distance between two IDs.
func Distance(a, b NodeID) uint64 { return uint64(a ^ b) }

// bucketIndex returns the k-bucket index for a contact at the given XOR
// distance: the position of the highest set bit (0 = closest half-space
// ... 63 = farthest). Distance 0 (self) has no bucket and returns -1.
func bucketIndex(d uint64) int {
	if d == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(d)
}

// Contact pairs a DHT identifier with its underlay attachment.
type Contact struct {
	ID   NodeID
	Host underlay.HostID
}

// Config tunes the DHT.
type Config struct {
	// K is the bucket size / replication factor.
	K int
	// Alpha is the lookup parallelism.
	Alpha int
	// RPCBytes is the size of one request or response message.
	RPCBytes uint64
}

// DefaultConfig uses the classic k=8 (scaled from 20), α=3.
func DefaultConfig() Config { return Config{K: 8, Alpha: 3, RPCBytes: 100} }

// Node is one DHT participant.
type Node struct {
	Contact
	host    *underlay.Host
	buckets [][]Contact // index by bucketIndex
	// spares is the per-bucket replacement cache: contacts that lost the
	// insertion contest wait here (newest last) and are promoted when an
	// eviction frees a slot. Nil until the first stash, so tables built
	// before any bucket overflows carry no extra state.
	spares [][]Contact
	store  map[Key][]byte
	cfg    Config
	dht    *DHT
}

// DHT is a Kademlia instance bound to an underlay via a transport.
type DHT struct {
	// T carries every RPC; U serves topology queries (proximity
	// estimates) without charging traffic.
	T   transport.Messenger
	U   *underlay.Network
	Cfg Config
	// Msgs counts RPCs ("find_node", "find_value", "store", "response")
	// — a view of the transport's per-type counters.
	Msgs *metrics.CounterSet
	// LookupTraffic accounts RPC bytes by AS pair, recorded by the
	// transport across all RPC message types.
	LookupTraffic *metrics.TrafficMatrix

	nodes  map[underlay.HostID]*Node
	byID   map[NodeID]*Node
	sorted []*Node // by NodeID, for deterministic iteration
	r      *rand.Rand
	sel    core.Selector
	// suspected and evicted track failure-detector verdicts (see
	// heal.go); nil until the resilience layer delivers one.
	suspected, evicted map[underlay.HostID]bool
}

// New creates an empty DHT sending through tr. A non-nil selector turns
// on proximity neighbor selection with the selector's Proximity verb as
// the distance estimate: core.RTTSelector for explicit measurement, or a
// Vivaldi/landmark predictor wrapped with core.FuncSelector to study
// prediction-driven PNS (the §3.2 collection techniques plugged into §4
// usage). A nil selector runs classic Kademlia.
func New(tr transport.Messenger, sel core.Selector, cfg Config, r *rand.Rand) *DHT {
	if cfg.K < 1 || cfg.Alpha < 1 {
		panic("kademlia: K and Alpha must be ≥ 1")
	}
	return &DHT{
		T:             tr,
		U:             tr.Underlay(),
		Cfg:           cfg,
		Msgs:          tr.Counters(),
		LookupTraffic: tr.MatrixFor("find_node", "find_value", "response", "store"),
		nodes:         make(map[underlay.HostID]*Node),
		byID:          make(map[NodeID]*Node),
		r:             r,
		sel:           sel,
	}
}

// proximity is the PNS distance estimate; contacts the selector has no
// answer for are never preferred.
func (d *DHT) proximity(a, b *underlay.Host) float64 {
	if v, ok := d.sel.Proximity(a, b); ok {
		return v
	}
	return math.MaxFloat64
}

// AddNode joins a host with a random (collision-free) node ID.
func (d *DHT) AddNode(h *underlay.Host) *Node {
	if _, dup := d.nodes[h.ID]; dup {
		panic(fmt.Sprintf("kademlia: host %d already joined", h.ID))
	}
	id := NodeID(d.r.Uint64())
	for _, taken := d.byID[id]; taken; _, taken = d.byID[id] {
		id = NodeID(d.r.Uint64())
	}
	n := &Node{
		Contact: Contact{ID: id, Host: h.ID},
		host:    h,
		buckets: make([][]Contact, 64),
		store:   make(map[Key][]byte),
		cfg:     d.Cfg,
		dht:     d,
	}
	d.nodes[h.ID] = n
	d.byID[id] = n
	d.sorted = append(d.sorted, n)
	sort.Slice(d.sorted, func(i, j int) bool { return d.sorted[i].ID < d.sorted[j].ID })
	return n
}

// Node returns the participant on a host (nil if absent).
func (d *DHT) Node(h underlay.HostID) *Node { return d.nodes[h] }

// Nodes returns all participants in NodeID order.
func (d *DHT) Nodes() []*Node { return d.sorted }

// observe inserts a learned contact into n's routing table.
func (n *Node) observe(c Contact) {
	if c.ID == n.ID {
		return
	}
	idx := bucketIndex(Distance(n.ID, c.ID))
	b := n.buckets[idx]
	for _, have := range b {
		if have.ID == c.ID {
			return // already known
		}
	}
	if len(b) < n.cfg.K {
		n.buckets[idx] = append(b, c)
		return
	}
	if n.dht.sel == nil {
		// Classic Kademlia drops the newcomer; we park it in the
		// replacement cache instead (a passive stash — routing behaviour
		// is unchanged until an eviction promotes it).
		n.stash(idx, c)
		return
	}
	// PNS: keep the K proximity-closest contacts for this bucket; the
	// loser of the contest goes to the replacement cache.
	prox := n.dht.proximity
	worst, worstLat := -1, -1.0
	for i, have := range b {
		lat := prox(n.host, n.dht.U.Host(have.Host))
		if lat > worstLat {
			worst, worstLat = i, lat
		}
	}
	newLat := prox(n.host, n.dht.U.Host(c.Host))
	if worst >= 0 && newLat < worstLat {
		n.stash(idx, n.buckets[idx][worst])
		n.buckets[idx][worst] = c
		return
	}
	n.stash(idx, c)
}

// closest returns up to k contacts from n's table nearest to target.
func (n *Node) closest(target NodeID, k int) []Contact {
	near := megascale.NewShortlist[NodeID](k, k)
	for _, b := range n.buckets {
		for _, c := range b {
			near.Add(c.ID, Distance(c.ID, target), false)
		}
	}
	return n.dht.contacts(&near)
}

// BucketFill reports the total number of routing-table entries (test and
// experiment introspection).
func (n *Node) BucketFill() int {
	total := 0
	for _, b := range n.buckets {
		total += len(b)
	}
	return total
}

// Contacts returns every contact in the routing table.
func (n *Node) Contacts() []Contact {
	var all []Contact
	for _, b := range n.buckets {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// Bootstrap populates routing tables: every node observes `seeds` random
// peers, then performs a self-lookup (the standard Kademlia join), which
// both fills its own table and advertises it to the nodes it traverses.
func (d *DHT) Bootstrap(seeds int) {
	for _, n := range d.sorted {
		for s := 0; s < seeds; s++ {
			peer := d.sorted[d.r.Intn(len(d.sorted))]
			if peer != n {
				n.observe(peer.Contact)
			}
		}
	}
	for _, n := range d.sorted {
		d.Lookup(n.Host, n.ID)
	}
}

// HealthStats implements the telemetry HealthReporter hook: structural
// gauges the probe plane samples over simulated time. All values come
// from pure reads in deterministic order (d.sorted, sorted contacts),
// so sampling never perturbs a run.
//
//   - nodes: joined population
//   - bucket_fill_mean: mean routing-table size per node
//   - rt_as_hops_mean: mean AS-path length from a node to its
//     routing-table entries — the locality PNS is supposed to buy
//   - rt_intra_as_fraction: share of routing-table entries inside the
//     owner's own AS
func (d *DHT) HealthStats() map[string]float64 {
	var fill, hops, intra, entries float64
	for _, n := range d.sorted {
		fill += float64(n.BucketFill())
		for _, c := range n.Contacts() {
			h := d.U.ASHops(n.host.AS.ID, d.U.Host(c.Host).AS.ID)
			if h < 0 {
				continue // unreachable: no defined distance
			}
			entries++
			hops += float64(h)
			if h == 0 {
				intra++
			}
		}
	}
	out := map[string]float64{"nodes": float64(len(d.sorted))}
	if len(d.sorted) > 0 {
		out["bucket_fill_mean"] = fill / float64(len(d.sorted))
	}
	if entries > 0 {
		out["rt_as_hops_mean"] = hops / entries
		out["rt_intra_as_fraction"] = intra / entries
	}
	return out
}

package kademlia

import (
	"sort"

	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// This file implements the resilience.Healer Suspect/Evict/Replace
// contract for Kademlia: eviction removes the dead peer from every
// routing table, and each freed slot is refilled by promoting the best
// live entry of that bucket's replacement cache — proximity-ranked when
// the DHT runs PNS, so repairs stay underlay-aware.

var _ resilience.Healer = (*DHT)(nil)

// Suspect records an advisory verdict. Suspected contacts stay in the
// routing tables (suspicion can be recanted) but are visible to
// introspection; lookups already route around unresponsive peers.
func (d *DHT) Suspect(id underlay.HostID) {
	if d.suspected == nil {
		d.suspected = make(map[underlay.HostID]bool)
	}
	d.suspected[id] = true
}

// Evict removes the peer from every node's routing table and promotes
// replacement-cache entries into the freed slots. Idempotent.
func (d *DHT) Evict(id underlay.HostID) {
	if d.evicted[id] {
		return
	}
	if d.evicted == nil {
		d.evicted = make(map[underlay.HostID]bool)
	}
	d.evicted[id] = true
	delete(d.suspected, id)
	dead := d.nodes[id]
	if dead == nil {
		return
	}
	for _, n := range d.sorted {
		if n != dead {
			n.dropContact(dead.Contact)
		}
	}
}

// Evicted returns the peers evicted so far, sorted.
func (d *DHT) Evicted() []underlay.HostID { return sortedHostIDs(d.evicted) }

// Refs returns every peer referenced by any routing table (deduped,
// sorted) — the reference set chaos invariants sweep for dead peers.
func (d *DHT) Refs() []underlay.HostID {
	set := make(map[underlay.HostID]bool)
	for _, n := range d.sorted {
		for _, c := range n.Contacts() {
			set[c.Host] = true
		}
	}
	return sortedHostIDs(set)
}

func sortedHostIDs(set map[underlay.HostID]bool) []underlay.HostID {
	out := make([]underlay.HostID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stash parks a contact in the bucket's replacement cache (newest last,
// oldest displaced, no duplicates).
func (n *Node) stash(idx int, c Contact) {
	if n.spares == nil {
		n.spares = make([][]Contact, len(n.buckets))
	}
	s := n.spares[idx]
	for _, have := range s {
		if have.ID == c.ID {
			return
		}
	}
	if len(s) >= n.cfg.K {
		s = s[1:]
	}
	n.spares[idx] = append(s, c)
}

// dropContact removes c from the bucket holding it and promotes a
// replacement from the cache.
func (n *Node) dropContact(c Contact) {
	idx := bucketIndex(Distance(n.ID, c.ID))
	if idx < 0 {
		return
	}
	for i, have := range n.buckets[idx] {
		if have.ID == c.ID {
			n.buckets[idx] = append(n.buckets[idx][:i], n.buckets[idx][i+1:]...)
			n.promote(idx)
			return
		}
	}
}

// promote moves the best live spare of a bucket into the table: the
// proximity-closest one under PNS, else the longest-waiting one — the
// replacement-cache policy of Kademlia's original design, made
// underlay-aware through the selector.
func (n *Node) promote(idx int) {
	if n.spares == nil {
		return
	}
	d := n.dht
	best := -1
	bestLat := 0.0
	for i, c := range n.spares[idx] {
		h := d.U.Host(c.Host)
		if !h.Up || d.evicted[c.Host] {
			continue
		}
		if d.sel == nil {
			best = i // FIFO: first live spare wins
			break
		}
		lat := d.proximity(n.host, h)
		if best < 0 || lat < bestLat {
			best, bestLat = i, lat
		}
	}
	if best < 0 {
		return
	}
	c := n.spares[idx][best]
	n.spares[idx] = append(n.spares[idx][:best], n.spares[idx][best+1:]...)
	n.buckets[idx] = append(n.buckets[idx], c)
}

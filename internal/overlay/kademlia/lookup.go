package kademlia

import (
	"slices"

	"unap2p/internal/megascale"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// LookupResult summarizes one iterative lookup.
type LookupResult struct {
	// Closest are the K nearest contacts found, nearest first.
	Closest []Contact
	// Hops is the number of lookup rounds.
	Hops int
	// Msgs is the number of RPC messages (requests + responses).
	Msgs int
	// Latency is the wall-clock cost: per round, the α requests run in
	// parallel, so the round costs the slowest RTT of the batch.
	Latency sim.Duration
	// Value is the payload when the lookup was a Get and a holder was
	// found.
	Value []byte
	// Found reports whether a Get located the value.
	Found bool
}

// Lookup performs an iterative FIND_NODE from the given host toward
// target, updating routing tables along the way (every response teaches
// the querier new contacts, and every queried node observes the querier).
func (d *DHT) Lookup(from underlay.HostID, target NodeID) LookupResult {
	return d.lookup(from, target, nil)
}

// Get performs FIND_VALUE: like Lookup but terminates early when a
// traversed node holds key.
func (d *DHT) Get(from underlay.HostID, key Key) LookupResult {
	return d.lookup(from, key, &key)
}

func (d *DHT) lookup(from underlay.HostID, target NodeID, valueKey *Key) LookupResult {
	origin := d.nodes[from]
	if origin == nil {
		return LookupResult{}
	}
	kind := "find_node"
	if valueKey != nil {
		kind = "find_value"
	}

	var res LookupResult
	// Only the K best candidates are ever queried or returned, and the K
	// best seen only get closer, so the shortlist keeps K. The origin is
	// listed as queried when a reply names it: it may be among the
	// closest, but it does not query itself.
	short := megascale.NewShortlist[NodeID](d.Cfg.K, d.Cfg.K)
	addCand := func(c Contact) {
		short.Add(c.ID, Distance(c.ID, target), c.ID == origin.ID)
	}
	for _, c := range origin.closest(target, d.Cfg.K) {
		addCand(c)
	}

	batch := make([]NodeID, 0, d.Cfg.Alpha)
	for {
		// Pick up to α unqueried candidates among the K best.
		batch = batch[:0]
		for len(batch) < d.Cfg.Alpha {
			id, ok := short.Next(nil)
			if !ok {
				break
			}
			batch = append(batch, id)
		}
		if len(batch) == 0 {
			break
		}
		res.Hops++
		var roundLatency sim.Duration
		for _, id := range batch {
			peer := d.byID[id]
			if peer == nil || !peer.host.Up {
				continue // dead contact: RPC times out, contributes nothing
			}
			// Request and response through the transport (which counts
			// both messages, charges the underlay, and records the
			// AS-pair traffic).
			rt := d.T.RoundTrip(origin.host, peer.host,
				d.Cfg.RPCBytes, d.Cfg.RPCBytes, kind, "response")
			res.Msgs += 2
			if !rt.OK {
				continue // RPC lost: times out, contributes nothing
			}
			if rt.Latency > roundLatency {
				roundLatency = rt.Latency
			}
			// The queried node learns about the querier; the querier
			// learns the peer's K closest to the target.
			peer.observe(origin.Contact)
			if valueKey != nil {
				if v, ok := peer.store[*valueKey]; ok {
					res.Latency += roundLatency
					res.Value = v
					res.Found = true
					res.Closest = d.contacts(&short)
					return res
				}
			}
			for _, learned := range peer.closest(target, d.Cfg.K) {
				origin.observe(learned)
				addCand(learned)
			}
		}
		res.Latency += roundLatency
	}

	res.Closest = d.contacts(&short)
	return res
}

// contacts resolves a shortlist's node ids to contacts, nearest first.
func (d *DHT) contacts(short *megascale.Shortlist[NodeID]) []Contact {
	out := make([]Contact, 0, short.Len())
	for _, id := range short.AppendIDs(nil) {
		out = append(out, d.byID[id].Contact)
	}
	return out
}

// Put stores value under key on the K closest nodes found by a lookup
// from the given host, counting one STORE RPC per replica.
func (d *DHT) Put(from underlay.HostID, key Key, value []byte) LookupResult {
	res := d.Lookup(from, key)
	origin := d.nodes[from]
	for _, c := range res.Closest {
		peer := d.byID[c.ID]
		if peer == nil || !peer.host.Up {
			continue
		}
		sr := d.T.Send(origin.host, peer.host, d.Cfg.RPCBytes+uint64(len(value)), "store")
		res.Msgs++
		if !sr.OK {
			continue // STORE lost: this replica is not written
		}
		peer.store[key] = value
	}
	// The origin may itself be among the K closest.
	if origin != nil && withinKClosest(d, key, origin.ID) {
		origin.store[key] = value
	}
	return res
}

// withinKClosest reports whether id is among the true K closest node IDs
// to key (global knowledge used only for the origin's self-store check).
func withinKClosest(d *DHT, key Key, id NodeID) bool {
	near := megascale.NewShortlist[NodeID](d.Cfg.K, d.Cfg.K)
	for _, n := range d.sorted {
		near.Add(n.ID, Distance(n.ID, key), false)
	}
	return slices.Contains(near.AppendIDs(nil), id)
}

// Package livenode is the per-process node runtime behind cmd/unapnode:
// it boots a nettransport.Net, joins a cluster through the hello/welcome
// handshake, runs the resilience failure detector against wall time, and
// hosts a compact live engine for one overlay (Kademlia, Chord or
// Gnutella).
//
// The live engines are deliberately not the simulation overlays. The sim
// packages hold a global view — a lookup walks other nodes' in-memory
// routing tables directly, which is exactly what a real deployment cannot
// do. Here every node only sees its own state, and every hop is a real
// datagram exchange through the nettransport RPC vocabulary
// (kad:find_node, chord:find_succ, gnu:query). What makes the engines
// compact is the keyspace convention below: a node's overlay key is a
// fixed hash of its cluster id, so any process can compute any member's
// key — and therefore the ground truth of any lookup — from the address
// book alone, with no key-exchange protocol. That is what lets an
// integration test assert a success rate instead of just "no crash".
package livenode

import (
	"cmp"
	"slices"

	"unap2p/internal/megascale"
	"unap2p/internal/underlay"
)

// NodeKey maps a cluster host id onto the 64-bit overlay keyspace with a
// splitmix64-style finalizer: deterministic, well spread, and computable
// by every process independently.
func NodeKey(id underlay.HostID) uint64 {
	return megascale.Mix64(uint64(uint32(id)) + 0x9e3779b97f4a7c15)
}

// xorEntry pairs a member with its XOR distance to a lookup target, so
// a ranking computes each NodeKey once.
type xorEntry struct {
	dist uint64
	id   underlay.HostID
}

// cmpXor orders entries by (distance, id): the Kademlia notion of
// "closer", with the id breaking ties between equal keys.
func cmpXor(a, b xorEntry) int {
	if c := cmp.Compare(a.dist, b.dist); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// ClosestXor returns up to k member ids sorted by XOR distance of their
// NodeKey to target — the Kademlia notion of "closest" — with ties
// broken by id. It returns nil for an empty member list.
func ClosestXor(members []underlay.HostID, target uint64, k int) []underlay.HostID {
	if len(members) == 0 {
		return nil
	}
	if k == 1 {
		best := xorEntry{NodeKey(members[0]) ^ target, members[0]}
		for _, id := range members[1:] {
			if e := (xorEntry{NodeKey(id) ^ target, id}); cmpXor(e, best) < 0 {
				best = e
			}
		}
		return []underlay.HostID{best.id}
	}
	ranked := make([]xorEntry, len(members))
	for i, id := range members {
		ranked[i] = xorEntry{NodeKey(id) ^ target, id}
	}
	slices.SortFunc(ranked, cmpXor)
	out := make([]underlay.HostID, min(k, len(ranked)))
	for i := range out {
		out[i] = ranked[i].id
	}
	return out
}

// RingSuccessor returns the member owning target on the Chord ring: the
// member whose NodeKey is the smallest key ≥ target, wrapping to the
// smallest key overall. False when members is empty.
func RingSuccessor(members []underlay.HostID, target uint64) (underlay.HostID, bool) {
	var best, wrap underlay.HostID
	var bestKey, wrapKey uint64
	haveBest, haveWrap := false, false
	for _, id := range members {
		k := NodeKey(id)
		if k >= target && (!haveBest || k < bestKey || (k == bestKey && id < best)) {
			best, bestKey, haveBest = id, k, true
		}
		if !haveWrap || k < wrapKey || (k == wrapKey && id < wrap) {
			wrap, wrapKey, haveWrap = id, k, true
		}
	}
	if haveBest {
		return best, true
	}
	if haveWrap {
		return wrap, true
	}
	return 0, false
}

// inArc reports whether key lies in the half-open ring arc (from, to].
func inArc(key, from, to uint64) bool {
	if from < to {
		return key > from && key <= to
	}
	// Arc wraps through zero (or from == to: the full ring).
	return key > from || key <= to
}

package megascale

import (
	"sort"

	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Iter is the generic shard-resident α-parallel iterative request driver
// — the state machine extracted from the compact Kademlia's lookup and
// shared with every structured port. A request keeps a working set of
// candidates ordered by the overlay's distance metric, keeps up to Alpha
// requests in flight, executes each hop on the target peer's shard (the
// only place its liveness may be read), and returns replies to the
// origin's shard through the sharded transport — so every port obeys the
// kernel's shard-ownership rules by construction.
type Iter struct {
	// Net carries every RPC; ReqClass/RepClass are the transport classes
	// for request and reply traffic, RPCBytes the size charged per
	// message.
	Net                *transport.ShardedNet
	ReqClass, RepClass int
	RPCBytes           uint64

	// Alpha is the request parallelism; Width caps the candidate working
	// set (3×K in Kademlia terms).
	Alpha, Width int

	// Ctr receives start/finish accounting on the origin's shard.
	Ctr *Counters

	// Dist returns peer q's distance to target under the overlay's
	// metric; lower is closer. Must be a pure read of immutable state.
	Dist func(q underlay.PeerID, target uint64) uint64
	// Candidates returns q's best known contacts toward target. It
	// executes on q's owning shard and may read q's shard-owned table
	// row.
	Candidates func(q underlay.PeerID, target uint64) []underlay.PeerID
	// Learn, when non-nil, records a discovered contact at the origin
	// (routing-table maintenance); it runs on the origin's shard.
	Learn func(origin, c underlay.PeerID)
	// OK reports whether the converged best peer is the exact
	// ground-truth answer; it runs on the origin's shard at completion.
	OK func(best underlay.PeerID, target uint64) bool
}

// iterState is one in-flight request; it lives on the origin peer's
// shard and every mutation of it happens there.
type iterState struct {
	it      *Iter
	origin  underlay.PeerID
	target  uint64
	cand    []underlay.PeerID // candidates sorted by distance
	queried map[underlay.PeerID]bool
	inFly   int
	hops    int
	done    bool
	onDone  func(Result)
}

// Start begins an iterative request for target from peer origin. It must
// be invoked on origin's owning shard (schedule it there). onDone, which
// may be nil, runs on origin's shard when the request converges.
func (it *Iter) Start(origin underlay.PeerID, target uint64, onDone func(Result)) {
	it.Ctr.Start(it.Net.ShardOf(origin))
	st := &iterState{
		it: it, origin: origin, target: target,
		queried: make(map[underlay.PeerID]bool, it.Width),
		onDone:  onDone,
	}
	for _, c := range it.Candidates(origin, target) {
		st.insert(c)
	}
	st.step()
}

// step issues requests to the nearest unqueried candidates, up to Alpha
// in flight. Runs on the origin's shard.
func (st *iterState) step() {
	if st.done {
		return
	}
	it := st.it
	issued := false
	for _, q := range st.cand {
		if st.inFly >= it.Alpha {
			break
		}
		if st.queried[q] {
			continue
		}
		st.queried[q] = true
		st.inFly++
		st.hops++
		issued = true
		st.request(q)
	}
	if !issued && st.inFly == 0 {
		st.finish()
	}
}

// request sends one routing RPC to peer q: the request executes on q's
// shard (the only place q's liveness and table may be read) and the
// reply returns to the origin's shard through the transport.
func (st *iterState) request(q underlay.PeerID) {
	it := st.it
	origin, target := st.origin, st.target
	it.Net.Send(origin, q, it.ReqClass, it.RPCBytes, func() {
		// On q's shard now.
		var found []underlay.PeerID
		alive := it.Net.Peers().Up(q)
		if alive {
			found = it.Candidates(q, target)
		}
		// Reply (or a zero-byte "timeout" nack after the same RTT when q
		// is down — a dead peer costs the request one round trip).
		bytes := it.RPCBytes
		if !alive {
			bytes = 0
		}
		it.Net.Send(q, origin, it.RepClass, bytes, func() {
			// Back on origin's shard.
			st.inFly--
			if alive {
				for _, c := range found {
					if it.Learn != nil {
						it.Learn(origin, c)
					}
					st.insert(c)
				}
			}
			st.step()
		})
	})
}

// insert merges candidate c into the sorted working set, keeping the
// nearest Width entries.
func (st *iterState) insert(c underlay.PeerID) {
	if c == st.origin {
		return
	}
	it := st.it
	dc := it.Dist(c, st.target)
	for _, e := range st.cand {
		if e == c {
			return
		}
	}
	i := sort.Search(len(st.cand), func(i int) bool {
		de := it.Dist(st.cand[i], st.target)
		if de != dc {
			return de > dc
		}
		return st.cand[i] >= c
	})
	st.cand = append(st.cand, 0)
	copy(st.cand[i+1:], st.cand[i:])
	st.cand[i] = c
	if len(st.cand) > it.Width {
		st.cand = st.cand[:it.Width]
	}
}

// finish completes the request on the origin's shard. The origin never
// enters the working set (it does not query itself), so it competes for
// the answer here, under the same (Dist, id) order insert uses: a lookup
// whose origin is itself the closest peer must converge on the origin.
func (st *iterState) finish() {
	st.done = true
	it := st.it
	best := st.origin
	if len(st.cand) > 0 {
		c := st.cand[0]
		dc, do := it.Dist(c, st.target), it.Dist(st.origin, st.target)
		if dc < do || (dc == do && c < st.origin) {
			best = c
		}
	}
	res := Result{
		Origin: st.origin, Best: best,
		OK: it.OK(best, st.target), Hops: st.hops,
	}
	it.Ctr.Finish(it.Net.ShardOf(st.origin), res.OK, st.hops)
	if st.onDone != nil {
		st.onDone(res)
	}
}

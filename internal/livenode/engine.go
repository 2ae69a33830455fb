package livenode

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"unap2p/internal/megascale"
	"unap2p/internal/metrics"
	"unap2p/internal/nettransport"
	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// Engine is one overlay protocol running live on a node: it installs its
// RPC handlers on the node's Net, answers queries from its own local
// view only, and repairs that view when the failure detector declares a
// peer dead (the resilience.Healer half).
type Engine interface {
	resilience.Healer
	// Name is the overlay's flag spelling: "kademlia", "chord", "gnutella".
	Name() string
	// Lookup resolves target through the overlay's own protocol — real
	// RPC hops, no global view — and reports the resolved member plus
	// whether it matches the ground truth computable from the node's
	// current membership (see NodeKey). A false verdict means the overlay
	// routed wrong or lost the race with membership change, not that the
	// call crashed.
	Lookup(target uint64) (underlay.HostID, bool)
}

// NewEngine builds the named engine on core. Unknown names return nil.
func NewEngine(name string, core *Core) Engine {
	switch name {
	case "kademlia":
		return newKademlia(core)
	case "chord":
		return newChord(core)
	case "gnutella":
		return newGnutella(core)
	}
	return nil
}

// Core is the node-local state every engine shares: the socket, the
// address book as the membership plane, and the eviction ledger. The
// book alone is not authoritative — a stale frame from an evicted peer
// would re-teach its address — so Core keeps its own dead set and
// members() filters through it.
type Core struct {
	Net  *nettransport.Net
	Self underlay.HostID
	Msgs *metrics.CounterSet

	mu      sync.Mutex
	dead    map[underlay.HostID]bool
	suspect map[underlay.HostID]bool
}

// NewCore wraps a Net for engine use.
func NewCore(n *nettransport.Net) *Core {
	return &Core{
		Net:     n,
		Self:    n.Self(),
		Msgs:    metrics.NewCounterSet(),
		dead:    make(map[underlay.HostID]bool),
		suspect: make(map[underlay.HostID]bool),
	}
}

// members returns the current membership view: every address-book id
// (self included — nodes hold their own entry) minus evicted peers.
func (c *Core) members() []underlay.HostID {
	ids := c.Net.Book().IDs()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := ids[:0]
	for _, id := range ids {
		if !c.dead[id] {
			out = append(out, id)
		}
	}
	return out
}

// Suspect implements the advisory half of resilience.Healer: the peer is
// flagged but keeps answering routing queries — suspicion can be
// recanted.
func (c *Core) Suspect(id underlay.HostID) {
	c.mu.Lock()
	c.suspect[id] = true
	c.mu.Unlock()
	c.Msgs.Get("heal_suspect").Inc()
}

// Recover recants a suspicion (wired to Detector.OnRecover).
func (c *Core) Recover(id underlay.HostID) {
	c.mu.Lock()
	delete(c.suspect, id)
	c.mu.Unlock()
	c.Msgs.Get("heal_recover").Inc()
}

// Evict implements the terminal half of resilience.Healer: the peer
// leaves the membership view permanently and its address is dropped.
func (c *Core) Evict(id underlay.HostID) {
	c.mu.Lock()
	c.dead[id] = true
	delete(c.suspect, id)
	c.mu.Unlock()
	c.Net.Book().Remove(id)
	c.Msgs.Get("heal_evict").Inc()
}

// Dead reports whether id has been evicted.
func (c *Core) Dead(id underlay.HostID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead[id]
}

func u64(p []byte) (uint64, bool) {
	if len(p) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(p), true
}

// --- Kademlia ---

const (
	kadK         = 8  // closest-set width returned per find_node
	kadMaxProbes = 16 // iterative-lookup query budget
)

// kademlia is the live Kademlia engine: iterative find_node lookups over
// the XOR metric. A queried node answers with a mini address book of the
// k closest members it knows, so the querier learns addresses as the
// lookup converges — the live analogue of learning contacts from
// FIND_NODE replies.
type kademlia struct{ c *Core }

func newKademlia(c *Core) *kademlia {
	e := &kademlia{c: c}
	c.Net.Handle("kad:find_node", func(from underlay.HostID, payload []byte) []byte {
		target, ok := u64(payload)
		if !ok {
			return nil
		}
		e.c.Msgs.Get("kad_served").Inc()
		closest := ClosestXor(e.c.members(), target, kadK)
		return e.c.Net.Book().EncodeIDs(closest)
	})
	return e
}

func (e *kademlia) Name() string               { return "kademlia" }
func (e *kademlia) Suspect(id underlay.HostID) { e.c.Suspect(id) }
func (e *kademlia) Evict(id underlay.HostID)   { e.c.Evict(id) }

func (e *kademlia) Lookup(target uint64) (underlay.HostID, bool) {
	e.c.Msgs.Get("kad_lookup").Inc()
	// Every contact seen so far, once each and ranked: the probe budget
	// may skip any number of dead peers, so the list keeps them all. The
	// node itself is listed as queried — it does not query itself.
	members := e.c.members()
	cands := megascale.NewShortlist[underlay.HostID](math.MaxInt, len(members))
	add := func(id underlay.HostID) { cands.Add(id, NodeKey(id)^target, id == e.c.Self) }
	for _, id := range members {
		add(id)
	}
	want, _, ok := cands.Head()
	if !ok {
		return 0, false
	}

	var key [8]byte
	binary.BigEndian.PutUint64(key[:], target)
	// Iterative deepening: always query the closest not-yet-queried
	// candidate, merging every reply's contacts into the candidate set,
	// until the frontier is exhausted or the probe budget runs out.
	for probes := 0; probes < kadMaxProbes; probes++ {
		next, ok := cands.Next(e.c.Dead)
		if !ok {
			break
		}
		resp, err := e.c.Net.Call(next, "kad:find_node", key[:])
		if err != nil {
			e.c.Msgs.Get("kad_rpc_fail").Inc()
			continue
		}
		peers, err := nettransport.DecodePeers(resp)
		if err != nil {
			e.c.Msgs.Get("kad_bad_resp").Inc()
			continue
		}
		for _, p := range peers {
			if e.c.Dead(p.ID) {
				continue
			}
			e.c.Net.Book().SetAddrPort(p.ID, p.Addr)
			add(p.ID)
		}
	}
	got, _, _ := cands.Head()
	if got == want {
		e.c.Msgs.Get("kad_lookup_ok").Inc()
		return got, true
	}
	e.c.Msgs.Get("kad_lookup_fail").Inc()
	return got, false
}

// --- Chord ---

const chordMaxHops = 32

// chord is the live Chord engine: a find-successor walk on the NodeKey
// ring. Each hop asks one node, which answers either "done, the
// successor is X" (target in its successor arc) or "ask Y next" (its
// closest preceding member). Reply entries travel as mini address books
// so the querier can reach the next hop.
type chord struct{ c *Core }

func newChord(c *Core) *chord {
	e := &chord{c: c}
	c.Net.Handle("chord:find_succ", func(from underlay.HostID, payload []byte) []byte {
		target, ok := u64(payload)
		if !ok {
			return nil
		}
		e.c.Msgs.Get("chord_served").Inc()
		done, hop := e.step(target)
		flag := byte(0)
		if done {
			flag = 1
		}
		return append([]byte{flag}, e.c.Net.Book().EncodeIDs([]underlay.HostID{hop})...)
	})
	return e
}

func (e *chord) Name() string               { return "chord" }
func (e *chord) Suspect(id underlay.HostID) { e.c.Suspect(id) }
func (e *chord) Evict(id underlay.HostID)   { e.c.Evict(id) }

// step is one routing decision from this node's own view: done=true
// means hop owns target; done=false means hop is the next node to ask.
func (e *chord) step(target uint64) (done bool, hop underlay.HostID) {
	members := e.c.members()
	me := NodeKey(e.c.Self)
	// Successor of self on the ring (smallest key strictly after me,
	// wrapping); alone in the ring, self owns everything.
	succ, okSucc := RingSuccessor(removeID(members, e.c.Self), me+1)
	if !okSucc {
		return true, e.c.Self
	}
	if inArc(target, me, NodeKey(succ)) {
		return true, succ
	}
	// Closest preceding member in (me, target): the standard Chord hop,
	// computed over the membership view in place of a finger table.
	best, okBest := underlay.HostID(-1), false
	for _, id := range members {
		k := NodeKey(id)
		if id == e.c.Self || !inArc(k, me, target) {
			continue
		}
		if !okBest || ringGap(k, target) < ringGap(NodeKey(best), target) {
			best, okBest = id, true
		}
	}
	if !okBest {
		return true, succ
	}
	return false, best
}

// ringGap is the clockwise distance from key to target on the ring.
func ringGap(key, target uint64) uint64 { return target - key } // wraps correctly in uint64

func removeID(ids []underlay.HostID, drop underlay.HostID) []underlay.HostID {
	out := make([]underlay.HostID, 0, len(ids))
	for _, id := range ids {
		if id != drop {
			out = append(out, id)
		}
	}
	return out
}

func (e *chord) Lookup(target uint64) (underlay.HostID, bool) {
	e.c.Msgs.Get("chord_lookup").Inc()
	members := e.c.members()
	want, ok := RingSuccessor(members, target)
	if !ok {
		return 0, false
	}
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], target)
	done, hop := e.step(target)
	for i := 0; !done && i < chordMaxHops; i++ {
		resp, err := e.c.Net.Call(hop, "chord:find_succ", key[:])
		if err != nil || len(resp) < 1 {
			e.c.Msgs.Get("chord_rpc_fail").Inc()
			break
		}
		peers, perr := nettransport.DecodePeers(resp[1:])
		if perr != nil || len(peers) == 0 {
			e.c.Msgs.Get("chord_bad_resp").Inc()
			break
		}
		e.c.Net.Book().SetAddrPort(peers[0].ID, peers[0].Addr)
		done, hop = resp[0] == 1, peers[0].ID
	}
	if done && hop == want {
		e.c.Msgs.Get("chord_lookup_ok").Inc()
		return hop, true
	}
	e.c.Msgs.Get("chord_lookup_fail").Inc()
	return hop, false
}

// --- Gnutella ---

const (
	gnuTTL     = 4
	gnuFanout  = 3
	gnuTimeout = 2 * time.Second
	// gnuSeenPeriod is a generation of the query dedup set. A lookup
	// waits gnuTimeout for its hit, so no flood it started is still worth
	// relaying after that; a generation twice as long leaves a margin.
	gnuSeenPeriod = 2 * gnuTimeout
)

// gnutella is the live unstructured engine: a TTL-bounded flood. A query
// names an exact member; every receiver either answers with a direct
// gnu:hit to the origin (it is the target) or relays the query to up to
// gnuFanout other members. Duplicate query ids are dropped, which is
// what keeps the flood from echoing forever.
type gnutella struct {
	c   *Core
	qid atomic.Uint64

	mu      sync.Mutex
	seen    qidSet
	pending map[uint64]chan underlay.HostID
}

// qidSet is the flood dedup set, split into two generations rotated on
// the wall clock. A qid stays visible for at least one full period after
// it is marked, longer than any flood lives, so dedup answers as an
// unbounded set would; but the set holds only the last two periods'
// qids, however many lookups the node runs and however many made-up
// qids its peers send.
type qidSet struct {
	cur, prev map[uint64]struct{}
	period    time.Duration
	rotateAt  time.Time
}

func newQidSet(period time.Duration) qidSet {
	return qidSet{cur: make(map[uint64]struct{}), prev: make(map[uint64]struct{}), period: period}
}

// mark records qid at time now and reports whether it was new.
func (d *qidSet) mark(qid uint64, now time.Time) bool {
	if !now.Before(d.rotateAt) {
		d.cur, d.prev = d.prev, d.cur
		clear(d.cur)
		d.rotateAt = now.Add(d.period)
	}
	if _, dup := d.cur[qid]; dup {
		return false
	}
	if _, dup := d.prev[qid]; dup {
		return false
	}
	d.cur[qid] = struct{}{}
	return true
}

// gnu:query payload: qid(8) + target(4) + origin(4) + ttl(1).
const gnuQueryLen = 8 + 4 + 4 + 1

func newGnutella(c *Core) *gnutella {
	e := &gnutella{
		c:       c,
		seen:    newQidSet(gnuSeenPeriod),
		pending: make(map[uint64]chan underlay.HostID),
	}
	e.qid.Store(NodeKey(c.Self)) // disjoint qid streams per node
	c.Net.HandleData("gnu:query", e.onQuery)
	c.Net.HandleData("gnu:hit", e.onHit)
	return e
}

func (e *gnutella) Name() string               { return "gnutella" }
func (e *gnutella) Suspect(id underlay.HostID) { e.c.Suspect(id) }
func (e *gnutella) Evict(id underlay.HostID)   { e.c.Evict(id) }

func (e *gnutella) onQuery(from underlay.HostID, _ string, payload []byte) {
	if len(payload) < gnuQueryLen {
		return
	}
	qid := binary.BigEndian.Uint64(payload)
	target := underlay.HostID(int32(binary.BigEndian.Uint32(payload[8:])))
	origin := underlay.HostID(int32(binary.BigEndian.Uint32(payload[12:])))
	ttl := payload[16]

	e.mu.Lock()
	fresh := e.seen.mark(qid, time.Now())
	e.mu.Unlock()
	if !fresh {
		e.c.Msgs.Get("gnu_dup").Inc()
		return
	}
	if target == e.c.Self {
		var hit [12]byte
		binary.BigEndian.PutUint64(hit[:], qid)
		binary.BigEndian.PutUint32(hit[8:], uint32(int32(e.c.Self)))
		e.c.Net.SendPayload(origin, "gnu:hit", hit[:], 0)
		e.c.Msgs.Get("gnu_answered").Inc()
		return
	}
	if ttl <= 1 {
		e.c.Msgs.Get("gnu_ttl_drop").Inc()
		return
	}
	fwd := append([]byte(nil), payload...)
	fwd[16] = ttl - 1
	e.flood(fwd, from, origin)
	e.c.Msgs.Get("gnu_forward").Inc()
}

// flood relays a query to up to gnuFanout members other than self, the
// frame's sender and the origin. The relays are a partial Fisher–Yates
// draw seeded by the query id and this node, so successive hops spread a
// query over different members rather than all converging on the
// lowest ids, and a given node relays a given query deterministically.
func (e *gnutella) flood(payload []byte, sender, origin underlay.HostID) {
	peers := e.c.members()
	n := 0
	for _, id := range peers {
		if id != e.c.Self && id != sender && id != origin {
			peers[n] = id
			n++
		}
	}
	peers = peers[:n]
	r := megascale.Mix64(binary.BigEndian.Uint64(payload) ^ NodeKey(e.c.Self))
	for i := 0; i < min(gnuFanout, n); i++ {
		j := i + int(r%uint64(n-i))
		peers[i], peers[j] = peers[j], peers[i]
		e.c.Net.SendPayload(peers[i], "gnu:query", payload, 0)
		r = megascale.Mix64(r + 0x9e3779b97f4a7c15)
	}
}

func (e *gnutella) onHit(from underlay.HostID, _ string, payload []byte) {
	if len(payload) < 12 {
		return
	}
	qid := binary.BigEndian.Uint64(payload)
	who := underlay.HostID(int32(binary.BigEndian.Uint32(payload[8:])))
	e.mu.Lock()
	ch := e.pending[qid]
	e.mu.Unlock()
	if ch != nil {
		select {
		case ch <- who:
		default:
		}
	}
}

// Lookup floods a query for the member that target hashes onto and waits
// for its direct hit. Ground truth is trivial — the target either
// answers or it doesn't — which makes this the overlay whose success
// rate most directly measures flood reach (TTL × fanout vs cluster
// size).
func (e *gnutella) Lookup(target uint64) (underlay.HostID, bool) {
	e.c.Msgs.Get("gnu_lookup").Inc()
	members := e.c.members()
	if len(members) == 0 {
		return 0, false
	}
	want := members[target%uint64(len(members))]
	if want == e.c.Self {
		e.c.Msgs.Get("gnu_lookup_ok").Inc()
		return want, true
	}
	qid := e.qid.Add(1)
	ch := make(chan underlay.HostID, 1)
	e.mu.Lock()
	e.pending[qid] = ch
	e.seen.mark(qid, time.Now()) // don't re-relay our own query when it echoes back
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.pending, qid)
		e.mu.Unlock()
	}()

	var q [gnuQueryLen]byte
	binary.BigEndian.PutUint64(q[:], qid)
	binary.BigEndian.PutUint32(q[8:], uint32(int32(want)))
	binary.BigEndian.PutUint32(q[12:], uint32(int32(e.c.Self)))
	q[16] = gnuTTL
	e.flood(q[:], e.c.Self, e.c.Self)

	timer := time.NewTimer(gnuTimeout)
	defer timer.Stop()
	select {
	case who := <-ch:
		if who == want {
			e.c.Msgs.Get("gnu_lookup_ok").Inc()
			return who, true
		}
		e.c.Msgs.Get("gnu_lookup_fail").Inc()
		return who, false
	case <-timer.C:
		e.c.Msgs.Get("gnu_lookup_fail").Inc()
		return -1, false
	}
}

package livenode

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

// TestGnutellaFloodReaches is the flood-reach floor on a cluster larger
// than one relay wave: with TTL 4 and fanout 3, a flood can reach every
// member of 16 only if successive hops relay to different members.
func TestGnutellaFloodReaches(t *testing.T) {
	const clusterSize, perNode = 16, 4
	nodes := bootCluster(t, "gnutella", clusterSize)
	var mu sync.Mutex
	ok := 0
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func(node *Node) {
			defer wg.Done()
			n := node.RunLookups(perNode)
			mu.Lock()
			ok += n
			mu.Unlock()
		}(node)
	}
	wg.Wait()
	total := clusterSize * perNode
	if ratio := float64(ok) / float64(total); ratio < 0.75 {
		t.Fatalf("%d/%d gnutella lookups verified (%.2f), floor 0.75", ok, total, ratio)
	}
	t.Logf("%d/%d gnutella lookups verified", ok, total)
}

// TestQidSetGenerations pins the dedup set's two promises on a synthetic
// clock: a qid stays a duplicate for at least one period after it is
// marked, and the set never holds more than the last two periods' qids.
func TestQidSetGenerations(t *testing.T) {
	const period, perPeriod = time.Second, 1000
	d := newQidSet(period)
	t0 := time.Unix(1000, 0)
	for p := 0; p < 10; p++ {
		now := t0.Add(time.Duration(p) * period)
		for i := 0; i < perPeriod; i++ {
			if !d.mark(uint64(p*perPeriod+i), now) {
				t.Fatalf("period %d: fresh qid %d reported as a duplicate", p, i)
			}
		}
		if size := len(d.cur) + len(d.prev); size > 2*perPeriod {
			t.Fatalf("period %d: set holds %d qids, bound %d", p, size, 2*perPeriod)
		}
		// Every qid of this period is still a duplicate just before the
		// period ends.
		for i := 0; i < perPeriod; i += 97 {
			if d.mark(uint64(p*perPeriod+i), now.Add(period-time.Nanosecond)) {
				t.Fatalf("period %d: qid %d forgotten within one period", p, i)
			}
		}
	}
}

// TestGnutellaSeenBounded floods one node with made-up query ids across
// several dedup generations, plus real lookups, and requires the dedup
// set to hold no more than two generations' worth.
func TestGnutellaSeenBounded(t *testing.T) {
	nodes := bootCluster(t, "gnutella", 4)
	e := nodes[1].Engine().(*gnutella)
	const perGen = 5000
	query := func(qid uint64) {
		var q [gnuQueryLen]byte
		binary.BigEndian.PutUint64(q[:], qid)
		binary.BigEndian.PutUint32(q[8:], 3)  // target: another member
		binary.BigEndian.PutUint32(q[12:], 0) // origin
		q[16] = 1                             // last hop: counted, never relayed
		e.onQuery(2, "gnu:query", q[:])
	}
	for gen := uint64(0); gen < 4; gen++ {
		nodes[1].RunLookups(20)
		for i := uint64(0); i < perGen; i++ {
			query(1<<40 + gen*perGen + i)
		}
		e.mu.Lock()
		size := len(e.seen.cur) + len(e.seen.prev)
		// Let the period run out: the next mark starts a new generation.
		e.seen.rotateAt = time.Now()
		e.mu.Unlock()
		if size > 2*(perGen+200) {
			t.Fatalf("generation %d: seen holds %d qids, bound %d", gen, size, 2*(perGen+200))
		}
	}
	// The first generation's qids are gone; the last one's are not.
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.seen.mark(1<<40, time.Now()) {
		t.Fatal("a qid from three generations back is still held")
	}
	if e.seen.mark(1<<40+3*perGen, time.Now()) {
		t.Fatal("a qid from the previous generation was forgotten")
	}
}

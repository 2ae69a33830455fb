package megascale

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oldIterSet is the working set Iter kept before Shortlist, kept here as
// the reference: a slice sorted by (Dist, id) with a linear dedup scan,
// cut to width, plus a separate queried map that outlives the cut.
type oldIterSet struct {
	dist    func(int32) uint64
	width   int
	cand    []int32
	queried map[int32]bool
}

func (o *oldIterSet) insert(c int32) {
	dc := o.dist(c)
	for _, e := range o.cand {
		if e == c {
			return
		}
	}
	i := sort.Search(len(o.cand), func(i int) bool {
		de := o.dist(o.cand[i])
		if de != dc {
			return de > dc
		}
		return o.cand[i] >= c
	})
	o.cand = append(o.cand, 0)
	copy(o.cand[i+1:], o.cand[i:])
	o.cand[i] = c
	if len(o.cand) > o.width {
		o.cand = o.cand[:o.width]
	}
}

func (o *oldIterSet) next() (int32, bool) {
	for _, q := range o.cand {
		if !o.queried[q] {
			o.queried[q] = true
			return q, true
		}
	}
	return 0, false
}

// randomDist returns a distance that is a fixed function of the id, as
// every lookup's is (the id's distance to one target), over a range
// small enough that distinct ids tie and the id must break the tie.
func randomDist(rng *rand.Rand) func(int32) uint64 {
	salt, span := rng.Uint64(), uint64(2+rng.Intn(40))
	return func(id int32) uint64 { return Mix64(uint64(id)^salt) % span }
}

// TestShortlistMatchesOldIterRule drives a Shortlist and the old Iter
// working set through the same random inserts and picks: the listed ids,
// every pick, and the head must agree.
func TestShortlistMatchesOldIterRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		width := 1 + rng.Intn(12)
		dist := randomDist(rng)
		ids := int32(5 + rng.Intn(60))
		old := &oldIterSet{dist: dist, width: width, queried: map[int32]bool{}}
		s := NewShortlist[int32](width, width)
		for op := 0; op < 80; op++ {
			if rng.Intn(4) == 0 {
				got, gok := s.Next(nil)
				want, wok := old.next()
				if got != want || gok != wok {
					t.Fatalf("trial %d op %d: Next = %d,%v, old rule %d,%v", trial, op, got, gok, want, wok)
				}
				continue
			}
			c := int32(rng.Intn(int(ids)))
			s.Add(c, dist(c), false)
			old.insert(c)
			if got := s.AppendIDs(nil); !slices.Equal(got, old.cand) {
				t.Fatalf("trial %d op %d: list %v, old rule %v", trial, op, got, old.cand)
			}
		}
		if h, d, ok := s.Head(); ok != (len(old.cand) > 0) || ok && (h != old.cand[0] || d != dist(h)) {
			t.Fatalf("trial %d: Head = %d,%d,%v, old rule %v", trial, h, d, ok, old.cand)
		}
	}
}

// TestShortlistMatchesOldSimRule checks the sim Kademlia lookup's use of
// a K-wide Shortlist against the rule it replaced, kept here as the
// reference: an unbounded shortlist deduplicated by a linear scan, fully
// sorted by (distance, id) every round, with up to α unqueried picks
// among the K best and the origin in a separate queried map. Each round
// picks its batch first and then merges every reply into the list.
func TestShortlistMatchesOldSimRule(t *testing.T) {
	type cand struct {
		id int32
		d  uint64
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		K, alpha := 1+rng.Intn(8), 1+rng.Intn(3)
		dist := randomDist(rng)
		ids := int32(5 + rng.Intn(80))
		origin := int32(rng.Intn(int(ids)))

		var old []cand
		queried := map[int32]bool{origin: true}
		oldAdd := func(c int32) {
			for _, have := range old {
				if have.id == c {
					return
				}
			}
			old = append(old, cand{c, dist(c)})
		}
		sortOld := func() {
			sort.Slice(old, func(i, j int) bool {
				if old[i].d != old[j].d {
					return old[i].d < old[j].d
				}
				return old[i].id < old[j].id
			})
		}
		topOld := func() []int32 {
			var out []int32
			for i := 0; i < len(old) && i < K; i++ {
				out = append(out, old[i].id)
			}
			return out
		}
		s := NewShortlist[int32](K, K)
		add := func(c int32) {
			s.Add(c, dist(c), c == origin)
			oldAdd(c)
		}
		reply := func() {
			for n := rng.Intn(K + 1); n > 0; n-- {
				add(int32(rng.Intn(int(ids))))
			}
		}
		reply()
		for round := 0; ; round++ {
			sortOld()
			var want []int32
			for i := 0; i < len(old) && i < K && len(want) < alpha; i++ {
				if !queried[old[i].id] {
					want = append(want, old[i].id)
				}
			}
			var got []int32
			for len(got) < alpha {
				id, ok := s.Next(nil)
				if !ok {
					break
				}
				got = append(got, id)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d round %d: batch %v, old rule %v", trial, round, got, want)
			}
			if len(want) == 0 {
				break
			}
			for _, id := range want {
				queried[id] = true
				reply()
			}
		}
		sortOld()
		if got, want := s.AppendIDs(nil), topOld(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: closest %v, old rule %v", trial, got, want)
		}
	}
}

// TestShortlistSkip checks that a rejected entry is passed over without
// being marked, so it can be picked once skip accepts it.
func TestShortlistSkip(t *testing.T) {
	s := NewShortlist[int32](8, 0)
	for _, id := range []int32{4, 1, 3, 2} {
		s.Add(id, uint64(id), id == 3)
	}
	dead := map[int32]bool{1: true}
	skip := func(id int32) bool { return dead[id] }
	for _, want := range []int32{2, 4} {
		if got, ok := s.Next(skip); !ok || got != want {
			t.Fatalf("Next = %d,%v, want %d", got, ok, want)
		}
	}
	if got, ok := s.Next(skip); ok {
		t.Fatalf("Next = %d, want none left", got)
	}
	delete(dead, 1)
	if got, ok := s.Next(skip); !ok || got != 1 {
		t.Fatalf("Next = %d,%v after recant, want 1", got, ok)
	}
}

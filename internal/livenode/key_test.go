package livenode

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"unap2p/internal/megascale"
	"unap2p/internal/underlay"
)

// naiveClosestXor is the reference ranking: a full sort that recomputes
// both keys on every comparison, cut to k.
func naiveClosestXor(members []underlay.HostID, target uint64, k int) []underlay.HostID {
	out := append([]underlay.HostID(nil), members...)
	sort.Slice(out, func(i, j int) bool {
		di, dj := NodeKey(out[i])^target, NodeKey(out[j])^target
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// randomMembers draws up to max ids from a small range, so lists often
// hold duplicates.
func randomMembers(rng *rand.Rand, max int) []underlay.HostID {
	ids := make([]underlay.HostID, rng.Intn(max+1))
	for i := range ids {
		ids[i] = underlay.HostID(rng.Intn(2 * max))
	}
	return ids
}

func TestClosestXorMatchesNaive(t *testing.T) {
	if got := ClosestXor(nil, 42, 8); got != nil {
		t.Fatalf("ClosestXor(nil) = %v, want nil", got)
	}
	if got := ClosestXor([]underlay.HostID{}, 42, 1); got != nil {
		t.Fatalf("ClosestXor(empty, k=1) = %v, want nil", got)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		members := randomMembers(rng, 40)
		target := rng.Uint64()
		if trial%5 == 0 && len(members) > 0 {
			// A target at a member's own key: distance 0, the exact hit.
			target = NodeKey(members[rng.Intn(len(members))])
		}
		in := slices.Clone(members)
		for _, k := range []int{0, 1, 2, 8, len(members), len(members) + 3} {
			got := ClosestXor(members, target, k)
			want := naiveClosestXor(members, target, k)
			if !slices.Equal(got, want) || len(got) != min(k, len(members)) {
				t.Fatalf("trial %d: ClosestXor(%v, %#x, %d) = %v, want %v", trial, members, target, k, got, want)
			}
		}
		if !slices.Equal(members, in) {
			t.Fatalf("trial %d: ClosestXor reordered its input", trial)
		}
	}
}

// TestKadCandidatesMatchOldRule drives the live Kademlia lookup's
// candidate list (an unbounded megascale.Shortlist, the node itself
// entered as queried) and the rule it replaced side by side on random
// lookups: the old rule kept
// every contact in a growing list, fully ranked it with ClosestXor on
// every probe to find the closest unqueried live one, and deduplicated
// it before ranking once more for the answer.
func TestKadCandidatesMatchOldRule(t *testing.T) {
	dedup := func(ids []underlay.HostID) []underlay.HostID {
		seen := make(map[underlay.HostID]bool, len(ids))
		out := ids[:0]
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		members := randomMembers(rng, 30)
		slices.Sort(members)
		members = slices.Compact(members)
		if len(members) == 0 {
			continue
		}
		self := members[rng.Intn(len(members))]
		target := rng.Uint64()
		dead := map[underlay.HostID]bool{}
		for i := 0; i < 4; i++ {
			dead[underlay.HostID(rng.Intn(60))] = true
		}
		isDead := func(id underlay.HostID) bool { return dead[id] }

		cands := megascale.NewShortlist[underlay.HostID](math.MaxInt, len(members))
		add := func(id underlay.HostID) { cands.Add(id, NodeKey(id)^target, id == self) }
		for _, id := range members {
			add(id)
		}
		old := slices.Clone(members)
		queried := map[underlay.HostID]bool{self: true}
		for probe := 0; probe < kadMaxProbes; probe++ {
			wantNext := underlay.HostID(-1)
			for _, id := range ClosestXor(old, target, len(old)) {
				if !queried[id] && !dead[id] {
					wantNext = id
					break
				}
			}
			gotNext, ok := cands.Next(isDead)
			if !ok {
				gotNext = -1
			}
			if gotNext != wantNext {
				t.Fatalf("trial %d probe %d: next = %d, old rule %d", trial, probe, gotNext, wantNext)
			}
			if wantNext < 0 {
				break
			}
			queried[wantNext] = true
			// A reply: up to kadK contacts, some already known, some
			// possibly self.
			for i := rng.Intn(kadK + 1); i > 0; i-- {
				id := underlay.HostID(rng.Intn(60))
				if i == 1 && rng.Intn(4) == 0 {
					id = self
				}
				add(id)
				old = append(old, id)
			}
			got, _, _ := cands.Head()
			if want := ClosestXor(dedup(slices.Clone(old)), target, 1)[0]; got != want {
				t.Fatalf("trial %d probe %d: best = %d, old rule %d", trial, probe, got, want)
			}
		}
	}
}

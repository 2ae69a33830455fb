package megascale

import "cmp"

// Shortlist is a lookup's candidate list: each id at most once, ordered
// by (distance, id), cut to the width closest, every entry carrying a
// queried flag. It is the one ranking every structured lookup shares —
// Iter's working set, the compact ports' candidate cuts, the sim
// Kademlia lookup and routing-table scans, and the live Kademlia engine.
//
// An id's distance must be a function of the id alone (its distance to
// the lookup's fixed target), so an id already listed is found by its
// (distance, id) key. With unique ids the keys never tie.
//
// Cutting an entry past the width is final: the width closest entries
// seen so far only get closer, so a cut id that is added again falls past
// the cut again. That is why the queried flag can live on the entry — an
// id the list has forgotten can never be chosen again.
type Shortlist[ID cmp.Ordered] struct {
	width   int
	entries []shortEntry[ID]
}

type shortEntry[ID cmp.Ordered] struct {
	dist    uint64
	id      ID
	queried bool
}

// NewShortlist returns an empty list that keeps the width closest
// entries, with room for capacity entries before it has to grow.
func NewShortlist[ID cmp.Ordered](width, capacity int) Shortlist[ID] {
	return Shortlist[ID]{width: width, entries: make([]shortEntry[ID], 0, capacity)}
}

// Len is the number of entries held.
func (s *Shortlist[ID]) Len() int { return len(s.entries) }

// Add ranks id at distance dist into the list, already queried when
// queried is set. An id already listed keeps its entry, and an id that
// would fall past the width is not kept.
func (s *Shortlist[ID]) Add(id ID, dist uint64, queried bool) {
	lo, hi := 0, len(s.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e := &s.entries[m]; e.dist < dist || (e.dist == dist && e.id < id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo >= s.width || (lo < len(s.entries) && s.entries[lo].id == id) {
		return
	}
	if len(s.entries) < s.width {
		s.entries = append(s.entries, shortEntry[ID]{})
	}
	copy(s.entries[lo+1:], s.entries[lo:len(s.entries)-1])
	s.entries[lo] = shortEntry[ID]{dist: dist, id: id, queried: queried}
}

// Next marks queried and returns the closest entry that is not queried
// yet and that skip (nil skips nothing) does not reject; false when none
// is left. Rejected entries stay unqueried.
func (s *Shortlist[ID]) Next(skip func(ID) bool) (ID, bool) {
	for i := range s.entries {
		if e := &s.entries[i]; !e.queried && (skip == nil || !skip(e.id)) {
			e.queried = true
			return e.id, true
		}
	}
	var zero ID
	return zero, false
}

// Head returns the closest entry and its distance; false when the list
// is empty.
func (s *Shortlist[ID]) Head() (ID, uint64, bool) {
	if len(s.entries) == 0 {
		var zero ID
		return zero, 0, false
	}
	return s.entries[0].id, s.entries[0].dist, true
}

// AppendIDs appends the listed ids — the width closest added — to out,
// closest first.
func (s *Shortlist[ID]) AppendIDs(out []ID) []ID {
	for i := range s.entries {
		out = append(out, s.entries[i].id)
	}
	return out
}

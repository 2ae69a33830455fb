package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ASPair is a directed (source AS, destination AS) pair.
type ASPair struct {
	Src, Dst int
}

// TrafficMatrix accumulates bytes exchanged between AS pairs. It is the
// core locality measurement: the intra-AS fraction of this matrix is the
// number every biased-neighbor-selection experiment in the paper reports.
//
// A TrafficMatrix is safe for concurrent use. Cells live in a dense
// dim×dim index addressed src*dim+dst, published through an atomic
// pointer: the per-message Add is a bounds check, an atomic load and
// atomic adds, with no map and no lock. The first touch of a pair takes
// the mutex to create its accumulator; an AS id at or beyond dim first
// grows the index by doubling dim, so creation costs amortized O(1)
// rather than the whole-index clone a copy-on-write map pays. The
// underlay charges every single Send into its Traffic matrix, which is
// why this path matters. AS ids are non-negative (they index the
// underlay's AS table); Add panics on a negative id.
type TrafficMatrix struct {
	mu    sync.Mutex // serializes cell creation and index growth
	index atomic.Pointer[cellIndex]
	total atomic.Uint64
	intra atomic.Uint64
}

// cellIndex is one published generation of the dense cell index. A grown
// index copies the previous generation's cell pointers, so a writer still
// holding an old index adds into the same accumulators.
type cellIndex struct {
	dim   int
	cells []atomic.Pointer[atomic.Uint64] // src*dim+dst, nil = untouched
}

// get returns the accumulator for (src, dst), nil when untouched or out of
// range.
func (ix *cellIndex) get(src, dst int) *atomic.Uint64 {
	if uint(src) >= uint(ix.dim) || uint(dst) >= uint(ix.dim) {
		return nil
	}
	return ix.cells[src*ix.dim+dst].Load()
}

// NewTrafficMatrix returns an empty matrix.
func NewTrafficMatrix() *TrafficMatrix {
	m := &TrafficMatrix{}
	m.index.Store(&cellIndex{})
	return m
}

// cell returns the accumulator for (src, dst), creating it on first use.
func (m *TrafficMatrix) cell(src, dst int) *atomic.Uint64 {
	if c := m.index.Load().get(src, dst); c != nil {
		return c
	}
	if src < 0 || dst < 0 {
		panic(fmt.Sprintf("metrics: negative AS id in traffic pair (%d,%d)", src, dst))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ix := m.index.Load()
	if need := max(src, dst) + 1; need > ix.dim {
		dim := max(ix.dim, 8)
		for dim < need {
			dim *= 2
		}
		grown := &cellIndex{dim: dim, cells: make([]atomic.Pointer[atomic.Uint64], dim*dim)}
		for s := 0; s < ix.dim; s++ {
			for d := 0; d < ix.dim; d++ {
				grown.cells[s*dim+d].Store(ix.cells[s*ix.dim+d].Load())
			}
		}
		m.index.Store(grown)
		ix = grown
	}
	slot := &ix.cells[src*ix.dim+dst]
	c := slot.Load()
	if c == nil { // else another writer created it first
		c = new(atomic.Uint64)
		slot.Store(c)
	}
	return c
}

// Add records n bytes flowing from AS src to AS dst.
func (m *TrafficMatrix) Add(src, dst int, n uint64) {
	m.cell(src, dst).Add(n)
	m.total.Add(n)
	if src == dst {
		m.intra.Add(n)
	}
}

// Total returns all bytes recorded.
func (m *TrafficMatrix) Total() uint64 { return m.total.Load() }

// Intra returns bytes whose source and destination AS coincide.
func (m *TrafficMatrix) Intra() uint64 { return m.intra.Load() }

// Inter returns bytes that crossed an AS boundary.
func (m *TrafficMatrix) Inter() uint64 { return m.total.Load() - m.intra.Load() }

// IntraFraction returns the intra-AS share of traffic in [0,1]
// (0 for an empty matrix).
func (m *TrafficMatrix) IntraFraction() float64 {
	total := m.total.Load()
	if total == 0 {
		return 0
	}
	return float64(m.intra.Load()) / float64(total)
}

// Pair returns the bytes recorded for a specific AS pair.
func (m *TrafficMatrix) Pair(src, dst int) uint64 {
	if c := m.index.Load().get(src, dst); c != nil {
		return c.Load()
	}
	return 0
}

// Pairs returns every pair that has been touched, sorted by (src, dst) —
// the dense index's row-major order.
func (m *TrafficMatrix) Pairs() []ASPair {
	ix := m.index.Load()
	var ps []ASPair
	for i := range ix.cells {
		if ix.cells[i].Load() != nil {
			ps = append(ps, ASPair{i / ix.dim, i % ix.dim})
		}
	}
	return ps
}

func (m *TrafficMatrix) String() string {
	return fmt.Sprintf("traffic total=%dB intra=%.1f%%", m.Total(), 100*m.IntraFraction())
}

// Conservation checks the bookkeeping invariant intra+inter == total.
// It exists for property tests (which run it on quiescent matrices; with
// writers in flight the cell sum may transiently trail total).
func (m *TrafficMatrix) Conservation() bool {
	var sum uint64
	ix := m.index.Load()
	for i := range ix.cells {
		if c := ix.cells[i].Load(); c != nil {
			sum += c.Load()
		}
	}
	return sum == m.total.Load() && m.intra.Load() <= m.total.Load()
}

package metrics

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// The accumulators feeding the real-socket transport's receive loop and
// the live /metrics scraper must tolerate concurrent writers and readers.
// These tests hammer each type from many goroutines while a reader
// snapshots it, and then check the totals are exact: under -race they
// pin the memory model, without it they pin that no increment is lost.

const (
	raceWriters   = 8
	racePerWriter = 10000
)

func TestCounterSetConcurrent(t *testing.T) {
	s := NewCounterSet()
	names := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent scraper
		for {
			select {
			case <-stop:
				return
			default:
				s.Snapshot()
				s.Names()
			}
		}
	}()
	for w := 0; w < raceWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < racePerWriter; i++ {
				s.Get(names[(w+i)%len(names)]).Inc()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	var total uint64
	for _, n := range s.Names() {
		total += s.Value(n)
	}
	if want := uint64(raceWriters * racePerWriter); total != want {
		t.Fatalf("lost increments: total %d want %d", total, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot()
				h.Quantile(0.95)
				h.Mean()
			}
		}
	}()
	for w := 0; w < raceWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < racePerWriter; i++ {
				h.Observe(float64(1 + (w*racePerWriter+i)%1000))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if want := uint64(raceWriters * racePerWriter); h.N() != want {
		t.Fatalf("lost observations: n %d want %d", h.N(), want)
	}
	var fromBuckets uint64
	for _, c := range h.Counts() {
		fromBuckets += c
	}
	if fromBuckets != h.N() {
		t.Fatalf("bucket sum %d != n %d", fromBuckets, h.N())
	}
	// Every writer observes the same value multiset, so the sum is exact
	// up to float addition order; compare with a generous tolerance.
	var wantSum float64
	for i := 0; i < raceWriters*racePerWriter; i++ {
		wantSum += float64(1 + i%1000)
	}
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum drifted: %g want %g", h.Sum(), wantSum)
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %g/%g, want 1/1000", h.Min(), h.Max())
	}
}

func TestTrafficMatrixConcurrent(t *testing.T) {
	m := NewTrafficMatrix()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				m.Snapshot()
				m.IntraFraction()
			}
		}
	}()
	for w := 0; w < raceWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < racePerWriter; i++ {
				m.Add(w%3, i%3, 10)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if want := uint64(raceWriters * racePerWriter * 10); m.Total() != want {
		t.Fatalf("lost bytes: total %d want %d", m.Total(), want)
	}
	if !m.Conservation() {
		t.Fatal("conservation violated")
	}
}

// TestTrafficMatrixConcurrentFirstTouch has every writer create cells
// over a grid wider than the initial dense index, in its own order, so
// first touches race with each other and with index growth while a
// reader snapshots. No byte may be lost, Pairs must stay sorted, and the
// snapshot must round-trip.
func TestTrafficMatrixConcurrentFirstTouch(t *testing.T) {
	const grid = 40
	m := NewTrafficMatrix()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				if ps := m.Pairs(); !pairsSorted(ps) {
					t.Error("Pairs not sorted mid-flight")
					return
				}
				m.Snapshot()
			}
		}
	}()
	// Each writer walks its own permutation of the grid: every stride is
	// coprime with grid².
	strides := [raceWriters]int{1, 3, 7, 11, 13, 17, 19, 23}
	for w := 0; w < raceWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < grid*grid; i++ {
				c := (i*strides[w] + w*97) % (grid * grid)
				m.Add(c/grid, c%grid, 3)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if want := uint64(raceWriters * grid * grid * 3); m.Total() != want {
		t.Fatalf("lost bytes: total %d want %d", m.Total(), want)
	}
	ps := m.Pairs()
	if len(ps) != grid*grid || !pairsSorted(ps) {
		t.Fatalf("pairs: %d cells, sorted=%v; want %d sorted", len(ps), pairsSorted(ps), grid*grid)
	}
	for _, p := range ps {
		if got := m.Pair(p.Src, p.Dst); got != raceWriters*3 {
			t.Fatalf("pair %v holds %d bytes, want %d", p, got, raceWriters*3)
		}
	}
	if !m.Conservation() {
		t.Fatal("conservation violated")
	}
	// An id far above the current dimension grows the index in place.
	m.Add(1000, 3, 5)
	if m.Pair(1000, 3) != 5 || m.Pair(3, 1000) != 0 || m.Pair(5000, 5000) != 0 || !m.Conservation() {
		t.Fatal("growth past the index dimension lost or misplaced bytes")
	}
	snap := m.Snapshot()
	if back := MatrixFromSnapshot(snap).Snapshot(); !reflect.DeepEqual(back, snap) {
		t.Fatal("snapshot round trip changed the matrix")
	}
}

func pairsSorted(ps []ASPair) bool {
	return slices.IsSortedFunc(ps, func(a, b ASPair) int {
		if a.Src != b.Src {
			return a.Src - b.Src
		}
		return a.Dst - b.Dst
	})
}

// TestTrafficMatrixNegativeID pins the documented contract: AS ids index
// the underlay's AS table, so a negative one is a caller bug and panics
// rather than being silently dropped.
func TestTrafficMatrixNegativeID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with a negative AS id did not panic")
		}
	}()
	NewTrafficMatrix().Add(-1, 0, 1)
}

package metrics

import "testing"

// BenchmarkTrafficMatrixFirstTouch measures building a matrix from
// scratch over a 64×64 AS grid: every Add is the first touch of its pair,
// the cost an experiment pays as its traffic spreads over new AS pairs.
// ns/op is per pair.
func BenchmarkTrafficMatrixFirstTouch(b *testing.B) {
	const ases = 64
	b.ReportAllocs()
	var m *TrafficMatrix
	for i := 0; i < b.N; i++ {
		if i%(ases*ases) == 0 {
			m = NewTrafficMatrix()
		}
		c := i % (ases * ases)
		m.Add(c/ases, c%ases, 100)
	}
}

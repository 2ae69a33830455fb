package sim

import "testing"

// BenchmarkKernelThroughput measures raw event processing: schedule-and-
// fire chains, the hot loop under every overlay simulation.
func BenchmarkKernelThroughput(b *testing.B) {
	k := NewKernel()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.Schedule(1, tick)
		}
	}
	b.ResetTimer()
	k.Schedule(1, tick)
	k.Drain()
	if n != b.N {
		b.Fatalf("processed %d of %d", n, b.N)
	}
}

// BenchmarkKernelFanout measures heap behaviour with many pending events.
func BenchmarkKernelFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 1000; j++ {
			k.Schedule(Duration(j%97), func() {})
		}
		k.Drain()
	}
}

// BenchmarkStreamDerivation measures named-substream creation.
func BenchmarkStreamDerivation(b *testing.B) {
	s := NewSource(1)
	for i := 0; i < b.N; i++ {
		_ = s.Stream("component")
	}
}

// BenchmarkKernelSchedule measures the schedule/fire round trip in
// steady state, where every schedule reuses a pooled event struct. The
// kernel hot loop must not allocate: see TestKernelScheduleZeroAlloc for
// the hard assertion.
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel()
	// Warm the pool so the timed region is pure steady state.
	for j := 0; j < 64; j++ {
		k.Schedule(Duration(j), func() {})
	}
	k.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.Schedule(1, tick)
		}
	}
	k.Schedule(1, tick)
	k.Drain()
	if n != b.N {
		b.Fatalf("processed %d of %d", n, b.N)
	}
}

// BenchmarkKernelScheduleRun measures schedule+pop against a deep queue:
// 1024 pending events that each reschedule themselves at a scattered
// delay when they fire, the shape of a message flood in flight. Unlike
// BenchmarkKernelSchedule (one pending event), every push and pop here
// sifts through about ten heap levels.
func BenchmarkKernelScheduleRun(b *testing.B) {
	const depth = 1024
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n <= b.N {
			k.Schedule(Duration(1+(n*7919)%97), tick)
		}
	}
	for j := 0; j < depth; j++ {
		k.Schedule(Duration(j%97), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Drain()
	if n != b.N+depth {
		b.Fatalf("processed %d of %d", n, b.N+depth)
	}
}

// TestKernelScheduleZeroAlloc pins the satellite requirement directly:
// steady-state schedule+fire performs zero allocations per event.
func TestKernelScheduleZeroAlloc(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for j := 0; j < 64; j++ {
		k.Schedule(Duration(j%7), fn)
	}
	k.Drain()
	allocs := testing.AllocsPerRun(1000, func() {
		for j := 0; j < 32; j++ {
			k.Schedule(Duration(j%11), fn)
		}
		k.Drain()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+drain allocates %.1f/run, want 0", allocs)
	}
}

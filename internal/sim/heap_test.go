package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// heapModel is the reference the kernel's event heap is checked against:
// a flat slice scanned for the smallest (at, seq) on every pop, with the
// kernel's clamping, daemon and horizon rules restated directly.
type heapModel struct {
	now       Time
	seq       uint64
	pending   []modelEvent
	processed uint64
	maxQueue  int
	daemons   int
	fire      func(id int)
}

type modelEvent struct {
	at     Time
	seq    uint64
	id     int
	daemon bool
}

func (m *heapModel) at(t Time, id int, daemon bool) {
	if t < m.now {
		t = m.now
	}
	m.pending = append(m.pending, modelEvent{at: t, seq: m.seq, id: id, daemon: daemon})
	m.seq++
	if daemon {
		m.daemons++
	}
	m.maxQueue = max(m.maxQueue, len(m.pending))
}

func (m *heapModel) cancel(id int) bool {
	for i, e := range m.pending {
		if e.id == id {
			m.remove(i)
			return true
		}
	}
	return false
}

func (m *heapModel) remove(i int) modelEvent {
	e := m.pending[i]
	m.pending = slices.Delete(m.pending, i, i+1)
	if e.daemon {
		m.daemons--
	}
	return e
}

func (m *heapModel) run(until Time) {
	for len(m.pending) > 0 {
		if m.daemons == len(m.pending) && until >= Forever {
			break
		}
		min := 0
		for i, e := range m.pending {
			if e.at < m.pending[min].at || (e.at == m.pending[min].at && e.seq < m.pending[min].seq) {
				min = i
			}
		}
		if m.pending[min].at > until {
			m.now = until
			return
		}
		e := m.remove(min)
		m.now = e.at
		m.processed++
		m.fire(e.id)
	}
	if m.now < until && until < Forever && len(m.pending) == 0 {
		m.now = until
	}
}

// TestKernelHeapMatchesModel feeds one seeded random mix of At, Schedule,
// AtDaemon and Cancel — including stale Timers whose pooled event has
// since fired, been cancelled or been reused — to the kernel and to the
// reference model, and requires identical pop order and identical
// Pending, MaxQueue, Processed and Now after every operation.
func TestKernelHeapMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		m := &heapModel{}
		var fired, want []int
		var timers []Timer // index = event id; every Timer ever issued
		daemon := map[int]bool{}
		child := map[int]int{} // parent id -> id of the child it scheduled

		// Every fourth non-daemon event schedules a child when it fires, so
		// pushes interleave with pops inside Run as they do in real runs.
		// The kernel side runs first and allocates the child's id; the
		// model replays the same child from the recorded id.
		var callback func(id int) func()
		callback = func(id int) func() {
			return func() {
				fired = append(fired, id)
				if !daemon[id] && id%4 == 0 {
					cid := len(timers)
					child[id] = cid
					timers = append(timers, k.Schedule(Duration(id%7), callback(cid)))
				}
			}
		}
		m.fire = func(id int) {
			want = append(want, id)
			if !daemon[id] && id%4 == 0 {
				m.at(m.now+Time(id%7), child[id], false)
			}
		}

		check := func(op string) {
			t.Helper()
			if !slices.Equal(fired, want) {
				t.Fatalf("seed %d after %s: pop order %v, model %v", seed, op, fired, want)
			}
			if k.Pending() != len(m.pending) || k.MaxQueue() != m.maxQueue ||
				k.Processed() != m.processed || k.Now() != m.now {
				t.Fatalf("seed %d after %s: pending/max/processed/now = %d/%d/%d/%v, model %d/%d/%d/%v",
					seed, op, k.Pending(), k.MaxQueue(), k.Processed(), k.Now(),
					len(m.pending), m.maxQueue, m.processed, m.now)
			}
		}
		for op := 0; op < 3000; op++ {
			id := len(timers)
			switch x := r.Intn(100); {
			case x < 35: // coarse times, so equal at values are common; some in the past
				at := k.Now() + Time(r.Intn(40)-5)
				timers = append(timers, k.At(at, callback(id)))
				m.at(at, id, false)
				check("At")
			case x < 55: // negative delays included
				d := Duration(r.Intn(30) - 3)
				timers = append(timers, k.Schedule(d, callback(id)))
				m.at(m.now+max(d, 0), id, false)
				check("Schedule")
			case x < 63:
				at := k.Now() + Time(r.Intn(50))
				daemon[id] = true
				timers = append(timers, k.AtDaemon(at, callback(id)))
				m.at(at, id, true)
				check("AtDaemon")
			case x < 85: // any Timer ever issued: pending, fired, cancelled or reused
				if len(timers) == 0 {
					continue
				}
				c := r.Intn(len(timers))
				if got, exp := timers[c].Cancel(), m.cancel(c); got != exp {
					t.Fatalf("seed %d: Cancel(%d) = %v, model %v", seed, c, got, exp)
				}
				check("Cancel")
			case x < 97:
				until := k.Now() + Time(r.Intn(20))
				k.Run(until)
				m.run(until)
				check("Run")
			default:
				k.Drain()
				m.run(Forever)
				check("Drain")
			}
		}
		k.Drain()
		m.run(Forever)
		check("final Drain")
		if len(fired) < 1000 || k.MaxQueue() < 10 {
			t.Fatalf("seed %d: degenerate schedule (%d fired, max queue %d)", seed, len(fired), k.MaxQueue())
		}
	}
}

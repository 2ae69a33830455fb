package nettransport

import (
	"net"
	"sync"
	"testing"
	"time"

	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// pair boots two Nets on ephemeral localhost ports and introduces them
// to each other through their address books.
func pair(t *testing.T) (a, b *Net) {
	t.Helper()
	a = listen(t, 0)
	b = listen(t, 1)
	a.Book().Set(b.Self(), b.LocalAddr())
	b.Book().Set(a.Self(), a.LocalAddr())
	return a, b
}

func listen(t *testing.T, id underlay.HostID) *Net {
	t.Helper()
	n, err := Listen(Config{Self: id, Timeout: 250 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// await polls cond until it holds or the deadline passes.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestNetSendAccountsAndDelivers(t *testing.T) {
	a, b := pair(t)

	var mu sync.Mutex
	var got []string
	b.HandleData("gossip", func(from underlay.HostID, msgType string, payload []byte) {
		mu.Lock()
		got = append(got, msgType)
		mu.Unlock()
	})

	res := a.Send(a.Host(a.Self()), a.Host(b.Self()), 100, "gossip")
	if !res.OK {
		t.Fatal("Send to known peer reported !OK")
	}
	if res.Latency != 0 {
		t.Fatalf("one-way Send reported a latency (%v); real sockets cannot know it", res.Latency)
	}
	if n := a.Counters().Get("gossip").Value(); n != 1 {
		t.Fatalf("sender gossip counter = %d, want 1", n)
	}
	if n := a.Counters().Get("gossip_bytes").Value(); n != 100 {
		t.Fatalf("sender gossip_bytes = %d, want 100", n)
	}
	await(t, "data delivery", func() bool {
		return b.Counters().Get("gossip_rx").Value() == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "gossip" {
		t.Fatalf("data handler saw %v, want [gossip]", got)
	}

	// Sending to a host with no book entry fails fast.
	if res := a.Send(a.Host(a.Self()), a.Host(99), 10, "gossip"); res.OK {
		t.Fatal("Send to unknown peer reported OK")
	}
}

func TestNetRoundTripAutoReply(t *testing.T) {
	a, b := pair(t)
	res := a.RoundTrip(a.Host(a.Self()), a.Host(b.Self()), 64, 128, "probe", "probe")
	if !res.OK {
		t.Fatal("RoundTrip over loopback failed")
	}
	if res.Latency <= 0 {
		t.Fatalf("RoundTrip latency %v, want > 0 (real RTT)", res.Latency)
	}
	if n := a.RTT().N(); n != 1 {
		t.Fatalf("RTT histogram holds %d samples, want 1", n)
	}
	// The responder charged the auto-reply on its own planes.
	if n := b.Counters().Get("probe").Value(); n != 1 {
		t.Fatalf("responder probe counter = %d, want 1", n)
	}
	if n := b.Counters().Get("probe_bytes").Value(); n != 128 {
		t.Fatalf("responder auto-reply bytes = %d, want 128 (RespBytes)", n)
	}
	// Probe is RoundTrip with probe/probe naming.
	if res := a.Probe(a.Host(a.Self()), a.Host(b.Self()), 32); !res.OK {
		t.Fatal("Probe failed")
	}
	if n := a.Counters().Get("probe").Value(); n != 2 {
		t.Fatalf("probe counter after Probe = %d, want 2", n)
	}
}

func TestNetRoundTripRetry(t *testing.T) {
	a, b := pair(t)
	var dropped sync.Once
	b.SetDropRx(func(f *Frame) bool {
		drop := false
		dropped.Do(func() { drop = true })
		return drop && f.Kind == KindReq
	})
	policy := transport.RetryPolicy{
		Budget:  2,
		Backoff: func(int) sim.Duration { return 1 },
	}
	res := a.RoundTripWith(policy, a.Host(a.Self()), a.Host(b.Self()), 16, 16, "fd_ping", "fd_ack")
	if !res.OK {
		t.Fatal("retry under budget did not recover from one dropped datagram")
	}
	if n := a.Counters().Get("net_retry").Value(); n != 1 {
		t.Fatalf("net_retry = %d, want 1", n)
	}
	if n := a.Counters().Get("net_timeout").Value(); n != 1 {
		t.Fatalf("net_timeout = %d, want 1", n)
	}
	// The charged latency includes the real backoff wait (≥1 ms).
	if res.Latency < 1 {
		t.Fatalf("latency %v does not include the 1ms backoff", res.Latency)
	}
}

func TestNetRoundTripTimesOut(t *testing.T) {
	a, b := pair(t)
	b.SetDropRx(func(f *Frame) bool { return true })
	start := time.Now()
	res := a.RoundTrip(a.Host(a.Self()), a.Host(b.Self()), 16, 16, "fd_ping", "fd_ack")
	if res.OK {
		t.Fatal("RoundTrip into a black hole reported OK")
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("gave up after %v, before the 250ms attempt deadline", elapsed)
	}
	if n := a.Counters().Get("net_timeout").Value(); n == 0 {
		t.Fatal("timeout not counted under net_timeout")
	}
}

func TestNetHandlerAndCall(t *testing.T) {
	a, b := pair(t)
	b.Handle("kad:find_node", func(from underlay.HostID, payload []byte) []byte {
		if from != a.Self() {
			t.Errorf("handler saw from=%d, want %d", from, a.Self())
		}
		return append([]byte("nodes:"), payload...)
	})
	resp, err := a.Call(b.Self(), "kad:find_node", []byte("k17"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "nodes:k17" {
		t.Fatalf("Call returned %q", resp)
	}
	// Both sides used the protocol's response vocabulary.
	if n := b.Counters().Get("kad:nodes").Value(); n != 1 {
		t.Fatalf("responder kad:nodes counter = %d, want 1", n)
	}
	if n := a.Counters().Get("kad:nodes_rx").Value(); n != 1 {
		t.Fatalf("caller kad:nodes_rx counter = %d, want 1", n)
	}
}

// TestNetDualStackPeer: a dual-stack socket sees an IPv4 peer as
// ::ffff:a.b.c.d. The book stores it unmapped, and calls run both ways
// between the dual-stack and the IPv4-only socket.
func TestNetDualStackPeer(t *testing.T) {
	dual, err := Listen(Config{Self: 0, Listen: ":0", Timeout: 250 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Skipf("no dual-stack UDP socket: %v", err)
	}
	t.Cleanup(func() { dual.Close() })
	v4 := listen(t, 1)
	echo := func(_ underlay.HostID, p []byte) []byte { return p }
	dual.Handle("kad:find_node", echo)
	v4.Handle("kad:find_node", echo)

	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: dual.LocalAddr().Port}
	if _, err := v4.CallAt(loop, "kad:find_node", []byte("a")); err != nil {
		t.Fatalf("IPv4 → dual-stack: %v", err)
	}
	learned, ok := dual.Book().Get(v4.Self())
	if !ok || !learned.Addr().Is4() {
		t.Fatalf("dual-stack book holds %v, %v for the IPv4 peer, want an IPv4 address", learned, ok)
	}
	if _, err := dual.Call(v4.Self(), "kad:find_node", []byte("b")); err != nil {
		t.Fatalf("dual-stack → IPv4: %v", err)
	}
	if _, err := v4.Call(dual.Self(), "kad:find_node", []byte("c")); err != nil {
		t.Fatalf("IPv4 → dual-stack by id: %v", err)
	}
}

// TestNetCallAtHostless: a bootstrap address without a host (":9000")
// means this host, as it does for the net package.
func TestNetCallAtHostless(t *testing.T) {
	a, b := listen(t, 0), listen(t, 1)
	b.Handle("kad:find_node", func(_ underlay.HostID, p []byte) []byte { return p })
	if _, err := a.CallAt(&net.UDPAddr{Port: b.LocalAddr().Port}, "kad:find_node", []byte("x")); err != nil {
		t.Fatalf("CallAt(:%d): %v", b.LocalAddr().Port, err)
	}
}

func TestNetMatrixSharing(t *testing.T) {
	a, b := pair(t)
	m := a.MatrixFor("kad:find_node", "kad:nodes")
	if a.MatrixFor("kad:nodes") != m {
		t.Fatal("MatrixFor does not share matrices across grouped types")
	}
	a.RoundTrip(a.Host(a.Self()), a.Host(b.Self()), 40, 0, "kad:find_node", "kad:nodes")
	if got := m.Total(); got != 40 {
		t.Fatalf("matrix total = %d, want 40", got)
	}
	if !m.Conservation() {
		t.Fatal("matrix cell sum does not match total")
	}
}

// TestNetConcurrentRoundTrips hammers one socket pair from many
// goroutines in both directions — the -race exercise for the receive
// loop, waiter table, counters, and histograms.
func TestNetConcurrentRoundTrips(t *testing.T) {
	a, b := pair(t)
	const workers, per = 8, 25
	var wg sync.WaitGroup
	var failed sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		src, dst := a, b
		if w%2 == 1 {
			src, dst = b, a
		}
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				res := src.RoundTrip(src.Host(src.Self()), src.Host(dst.Self()), 32, 32, "probe", "probe")
				if !res.OK {
					failed.Store(w*1000+i, true)
				}
			}
		}(w)
	}
	wg.Wait()
	nFailed := 0
	failed.Range(func(_, _ any) bool { nFailed++; return true })
	// Loopback UDP can in principle drop under pressure; tolerate a few.
	if nFailed > workers*per/20 {
		t.Fatalf("%d/%d loopback round trips failed", nFailed, workers*per)
	}
	if n := a.RTT().N() + b.RTT().N(); n < uint64(workers*per-nFailed) {
		t.Fatalf("histograms hold %d RTT samples, want ≥ %d", n, workers*per-nFailed)
	}
}

func TestPacerRunsKernelOnWallClock(t *testing.T) {
	k := sim.NewKernel()
	p := NewPacer(k)
	var mu sync.Mutex
	ticks := 0
	// Schedule before Start: the kernel is still ours.
	k.Every(10, func() { // every 10 sim-ms = 10 wall-ms
		mu.Lock()
		ticks++
		mu.Unlock()
	})
	p.Start()
	defer p.Stop()
	await(t, "pacer ticks", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return ticks >= 5
	})
	// Do funnels onto the pacer goroutine and observes kernel time.
	var now sim.Time
	p.Do(func() { now = k.Now() })
	if now < 50 {
		t.Fatalf("kernel advanced only to %v after ≥5 ticks of 10ms", now)
	}
	if wall := p.Now(); float64(now) > float64(wall)+1 {
		t.Fatalf("kernel time %v ran ahead of wall time %v", now, wall)
	}
}

func TestPacerDaemonEventsFire(t *testing.T) {
	// The resilience detector schedules with AtDaemon; a wall-clock run
	// must fire those even though a Drain would park them.
	k := sim.NewKernel()
	p := NewPacer(k)
	fired := make(chan struct{})
	var tick func()
	tick = func() {
		select {
		case fired <- struct{}{}:
		default:
		}
		k.AtDaemon(k.Now()+5, tick)
	}
	k.AtDaemon(5, tick)
	p.Start()
	defer p.Stop()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon event never fired under the pacer")
	}
}

func TestNetImplementsMessenger(t *testing.T) {
	var _ transport.Messenger = (*Net)(nil)
	a, _ := pair(t)
	if a.Underlay() == nil {
		t.Fatal("nil underlay stub")
	}
	h := a.Host(5)
	if h == nil || h.ID != 5 || !h.Up {
		t.Fatalf("Host(5) returned %+v", h)
	}
	if a.Underlay().NumHosts() != 6 {
		t.Fatalf("underlay stub holds %d hosts, want 6 after Host(5)", a.Underlay().NumHosts())
	}
	if a.Host(5) != h {
		t.Fatal("Host is not stable across calls")
	}
	if a.Kernel() != nil {
		t.Fatal("kernel non-nil before AttachKernel")
	}
	k := sim.NewKernel()
	a.AttachKernel(k)
	if a.Kernel() != k {
		t.Fatal("AttachKernel not reflected by Kernel()")
	}
}

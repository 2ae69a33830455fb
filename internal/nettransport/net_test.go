package nettransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"slices"
	"strings"
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
	var got []underlay.HostID
	b.HandleData("gnu:query", func(from underlay.HostID, payload []byte) {
		mu.Lock()
		got = append(got, from)
		mu.Unlock()
	})

	if err := a.SendPayload(b.Self(), "gnu:query", make([]byte, 100)); err != nil {
		t.Fatalf("SendPayload to known peer: %v", err)
	}
	if n := a.Counters().Get("gnu:query").Value(); n != 1 {
		t.Fatalf("sender gnu:query counter = %d, want 1", n)
	}
	if n := a.Counters().Get("gnu:query_bytes").Value(); n != 100 {
		t.Fatalf("sender gnu:query_bytes = %d, want 100", n)
	}
	await(t, "data delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	if got[0] != a.Self() {
		t.Fatalf("data handler saw sender %d, want %d", got[0], a.Self())
	}
	if n := b.Counters().Get("gnu:query_rx").Value(); n != 1 {
		t.Fatalf("receiver gnu:query_rx = %d, want 1", n)
	}

	// Sending to a host with no book entry fails fast, and a type
	// outside the message table is refused before it is counted.
	if err := a.SendPayload(99, "gnu:query", nil); err == nil {
		t.Fatal("SendPayload to unknown peer reported success")
	}
	if err := a.SendPayload(b.Self(), "gossip", nil); !errors.Is(err, ErrBadType) {
		t.Fatalf("SendPayload of a type outside the table: %v, want ErrBadType", err)
	}
	if n := a.Counters().Value("gossip"); n != 0 {
		t.Fatalf("refused type was counted: gossip = %d", n)
	}
}

// ping is the failure detector's single-attempt fd_ping round trip.
func ping(src, dst *Net, reqBytes, respBytes uint64) transport.Result {
	return src.RoundTripWith(transport.RetryPolicy{}, src.Host(src.Self()), src.Host(dst.Self()),
		reqBytes, respBytes, "fd_ping", "fd_ack")
}

func TestNetRoundTripAutoReply(t *testing.T) {
	a, b := pair(t)
	res := ping(a, b, 64, 128)
	if !res.OK {
		t.Fatal("RoundTripWith over loopback failed")
	}
	if res.Latency <= 0 {
		t.Fatalf("RoundTripWith latency %v, want > 0 (real RTT)", res.Latency)
	}
	if n := a.RTT().N(); n != 1 {
		t.Fatalf("RTT histogram holds %d samples, want 1", n)
	}
	// The responder charged the auto-reply on its own planes, under the
	// table's reply type.
	if n := b.Counters().Get("fd_ack").Value(); n != 1 {
		t.Fatalf("responder fd_ack counter = %d, want 1", n)
	}
	if n := b.Counters().Get("fd_ack_bytes").Value(); n != 128 {
		t.Fatalf("responder auto-reply bytes = %d, want 128 (RespBytes)", n)
	}
	if n := a.Counters().Get("fd_ack_rx_bytes").Value(); n != 128 {
		t.Fatalf("caller fd_ack_rx_bytes = %d, want 128", n)
	}
	if res := ping(a, b, 32, 32); !res.OK {
		t.Fatal("second ping failed")
	}
	if n := a.Counters().Get("fd_ping").Value(); n != 2 {
		t.Fatalf("fd_ping counter after two pings = %d, want 2", n)
	}
	if n := a.Counters().Get("fd_ack_rx").Value(); n != 2 {
		t.Fatalf("fd_ack_rx after two pings = %d, want 2", n)
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
	res := ping(a, b, 16, 16)
	if res.OK {
		t.Fatal("RoundTripWith into a black hole reported OK")
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
	// The dual-stack socket reports the IPv4 peer in mapped form; the
	// book keeps it unmapped, so the IPv4 socket can be written to.
	mapped := netip.AddrPortFrom(netip.MustParseAddr("::ffff:127.0.0.1"), uint16(v4.LocalAddr().Port))
	dual.Book().SetAddrPort(v4.Self(), mapped)
	v4.Book().Set(dual.Self(), loop)
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
				if res := ping(src, dst, 32, 32); !res.OK {
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

// TestNetHostStubsAndKernel: Host hands the failure detector one
// stable, Up stub per id, whatever the id; the kernel is the attached
// one.
func TestNetHostStubsAndKernel(t *testing.T) {
	a, _ := pair(t)
	for _, id := range []underlay.HostID{5, -7, math.MaxInt32} {
		h := a.Host(id)
		if h == nil || h.ID != id || !h.Up {
			t.Fatalf("Host(%d) returned %+v", id, h)
		}
		if a.Host(id) != h {
			t.Fatalf("Host(%d) is not stable across calls", id)
		}
	}
	if len(a.hosts) != 3 {
		t.Fatalf("%d host stubs after three ids, want 3", len(a.hosts))
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

// rawSocket is a bare UDP socket standing in for a hostile peer: it
// writes any bytes to a Net and reads what comes back.
func rawSocket(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// readFrame waits for one frame on a raw socket.
func readFrame(t *testing.T, c *net.UDPConn) Frame {
	t.Helper()
	buf := make([]byte, 65536)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	nr, err := c.Read(buf)
	if err != nil {
		t.Fatalf("no reply at the request's source address: %v", err)
	}
	f, err := DecodeFrame(buf[:nr])
	if err != nil {
		t.Fatalf("reply does not decode: %v", err)
	}
	return f
}

// TestSpoofedFromKeepsBook: a frame's From is a claim, not an address.
// A third socket sends A requests that claim to come from B, and from a
// host A has never heard of; A's book must keep B's real address, A
// must still reach B, and both requests are answered at the source
// they came from.
func TestSpoofedFromKeepsBook(t *testing.T) {
	a, b := pair(t)
	before, _ := a.Book().Get(b.Self())
	version := a.Book().Version()
	mallory := rawSocket(t)
	to := a.LocalAddr()
	for i, from := range []underlay.HostID{b.Self(), 77} {
		req := Frame{Kind: KindReq, Type: "fd_ping", From: from, To: a.Self(),
			ReqID: uint64(100 + i), RespBytes: 8}
		buf, err := AppendFrame(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mallory.WriteToUDP(buf, to); err != nil {
			t.Fatal(err)
		}
		resp := readFrame(t, mallory)
		if resp.Kind != KindResp || resp.Type != "fd_ack" || resp.ReqID != req.ReqID ||
			resp.To != from || len(resp.Payload) != 8 {
			t.Fatalf("request claiming host %d: got %+v", from, resp)
		}
	}
	if after, _ := a.Book().Get(b.Self()); after != before || a.Book().Version() != version {
		t.Fatalf("spoofed frames rewrote A's book: B at %v, was %v", after, before)
	}
	if _, ok := a.Book().Get(77); ok {
		t.Fatal("a request from an unknown sender added it to the book")
	}
	b.Handle("kad:find_node", func(_ underlay.HostID, p []byte) []byte { return p })
	if _, err := a.Call(b.Self(), "kad:find_node", []byte("k")); err != nil {
		t.Fatalf("A cannot reach B after the spoofed frames: %v", err)
	}
}

// TestUnknownTypesMintNoCounters: a datagram may only touch the counters
// the message table names. 2000 frames with made-up types — half in the
// inline-string form wire version 1 accepted, half with ids past the
// table — must all land in net_rx_bad and leave the counter set as it
// was.
func TestUnknownTypesMintNoCounters(t *testing.T) {
	a, err := Listen(Config{Self: 0, Timeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	c := rawSocket(t)
	// received counts the frames the receive loop has taken in, whether
	// it found them malformed or accepted them under some type.
	received := func() (n uint64) {
		for _, name := range a.Counters().Names() {
			if name == "net_rx_bad" || strings.HasSuffix(name, "_rx") {
				n += a.Counters().Value(name)
			}
		}
		return n
	}
	sent := 0
	send := func(b []byte) {
		t.Helper()
		if _, err := c.WriteToUDP(b, a.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		sent++
		// Stay well inside the socket buffer, so no datagram is lost.
		if sent%50 == 0 {
			await(t, "frames received", func() bool { return received() == uint64(sent) })
		}
	}
	send([]byte("not a frame")) // first bad frame creates net_rx_bad
	await(t, "net_rx_bad", func() bool { return a.Counters().Value("net_rx_bad") == 1 })
	names := a.Counters().Names()

	tail := make([]byte, 4+4+8+4+4) // from, to, reqid, respbytes, paylen 0
	binary.BigEndian.PutUint32(tail, 9)
	for i := 0; i < 2000; i++ {
		frame := []byte{magic0, magic1, wireVersion, byte(KindData)}
		if i%2 == 0 {
			name := fmt.Sprintf("made-up/%d", i)
			frame = append(append(frame, 0xFF, byte(len(name))), name...)
		} else {
			frame = append(frame, byte(len(msgTable)+i%(0xFF-len(msgTable))))
		}
		send(append(frame, tail...))
	}
	await(t, "all frames received", func() bool { return received() == 2001 })
	if got := a.Counters().Names(); !slices.Equal(got, names) {
		t.Fatalf("made-up types changed the counter set: %d names before, %d after", len(names), len(got))
	}
	if n := a.Counters().Value("net_rx_bad"); n != 2001 {
		t.Fatalf("net_rx_bad = %d, want 2001", n)
	}
}

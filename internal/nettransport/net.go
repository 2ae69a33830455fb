package nettransport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"unap2p/internal/metrics"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Config tunes a Net.
type Config struct {
	// Self is this process's cluster-wide host id. Every process in a
	// cluster must use a distinct id; the id is the address-book key and
	// travels in every frame.
	Self underlay.HostID
	// Listen is the UDP listen address ("127.0.0.1:0" binds an ephemeral
	// port; LocalAddr reports the result).
	Listen string
	// Timeout is the per-attempt round-trip deadline. Zero means 500 ms.
	Timeout time.Duration
	// Logf, when non-nil, receives diagnostic lines (malformed frames,
	// handler panics).
	Logf func(format string, args ...any)
}

// Handler serves one request type: it receives the requester's id and
// payload and returns the response payload. Handlers run on their own
// goroutine per request, so they may issue nested calls through the same
// Net (the Gnutella flood relays queries this way).
type Handler func(from underlay.HostID, payload []byte) []byte

// DataHandler observes one-way KindData frames (no response).
type DataHandler func(from underlay.HostID, msgType string, payload []byte)

// Net is the real-socket transport.Messenger: the same interface the
// simulated Transport implements, carried over UDP datagrams between
// actual processes. Differences from the sim backend, by design:
//
//   - Time is wall-clock. Send cannot know a one-way latency, so its
//     Result.Latency is 0; RoundTrip and Probe report the measured RTT
//     in sim.Duration milliseconds (float).
//   - There is no global purity: loss is real loss, latency is real
//     latency, and runs are not reproducible per seed.
//   - Topology is flat: the local underlay stub has a single AS, so the
//     intra-AS accounting planes see every byte as intra. The address
//     book, not the underlay, is the source of reachability.
//
// Everything else — per-type counters, RTT histograms, traffic matrices,
// RetryPolicy semantics — feeds the same metrics planes the sim backend
// feeds, which is what makes /metrics on a live node comparable with a
// recorded simulation.
type Net struct {
	cfg  Config
	conn *net.UDPConn
	book *AddressBook

	// u is the local underlay stub: one AS, one Host per known peer, all
	// permanently Up. It satisfies topology queries from components built
	// against the sim backend; Host pointers stay valid forever.
	u      *underlay.Network
	as0    *underlay.AS
	hostMu sync.Mutex

	// kernel, when attached, is the wall-clock-paced sim kernel that
	// sim-time components (resilience.Detector) schedule on.
	kernel *sim.Kernel

	msgs *metrics.CounterSet
	rtt  *metrics.Histogram

	matMu    sync.Mutex
	matrices map[string]*metrics.TrafficMatrix

	reqID   atomic.Uint64
	waitMu  sync.Mutex
	waiters map[uint64]chan Frame

	handMu   sync.RWMutex
	handlers map[string]Handler
	onData   map[string]DataHandler

	// dropRx, when set, discards matching inbound frames before any
	// processing — the test hook for forcing timeouts and retries
	// without real packet loss. See SetDropRx.
	dropRx atomic.Pointer[func(f *Frame) bool]

	closed atomic.Bool
	wg     sync.WaitGroup
}

var _ transport.Messenger = (*Net)(nil)

// Listen binds the UDP socket and starts the receive loop.
func Listen(cfg Config) (*Net, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	n := &Net{
		cfg:      cfg,
		conn:     conn,
		book:     NewAddressBook(),
		u:        underlay.New(),
		msgs:     metrics.NewCounterSet(),
		rtt:      metrics.NewLatencyHistogram(),
		matrices: make(map[string]*metrics.TrafficMatrix),
		waiters:  make(map[uint64]chan Frame),
		handlers: make(map[string]Handler),
		onData:   make(map[string]DataHandler),
	}
	n.as0 = n.u.AddAS(underlay.LocalISP, 0)
	n.Host(cfg.Self) // materialize self
	n.wg.Add(1)
	go n.receiveLoop()
	return n, nil
}

// LocalAddr returns the bound UDP address (with the resolved port).
func (n *Net) LocalAddr() *net.UDPAddr { return n.conn.LocalAddr().(*net.UDPAddr) }

// Self returns this process's host id.
func (n *Net) Self() underlay.HostID { return n.cfg.Self }

// Book exposes the peer address book.
func (n *Net) Book() *AddressBook { return n.book }

// AttachKernel installs the wall-clock-paced kernel Kernel() reports.
// Call before handing the Net to kernel-requiring components.
func (n *Net) AttachKernel(k *sim.Kernel) { n.kernel = k }

// RTT exposes the round-trip latency histogram (milliseconds).
func (n *Net) RTT() *metrics.Histogram { return n.rtt }

// Handle registers fn for a request type. Registering twice replaces.
func (n *Net) Handle(msgType string, fn Handler) {
	n.handMu.Lock()
	n.handlers[msgType] = fn
	n.handMu.Unlock()
}

// HandleData registers the observer for one-way frames of the given
// type. Registering twice replaces.
func (n *Net) HandleData(msgType string, fn DataHandler) {
	n.handMu.Lock()
	n.onData[msgType] = fn
	n.handMu.Unlock()
}

// SetDropRx installs (or, with nil, removes) an inbound drop filter:
// frames for which fn returns true are discarded before processing and
// counted under net_rx_drop. This is the loss-injection hook the retry
// and chaos tests use in place of real packet loss.
func (n *Net) SetDropRx(fn func(f *Frame) bool) {
	if fn == nil {
		n.dropRx.Store(nil)
		return
	}
	n.dropRx.Store(&fn)
}

// Close shuts the socket down and waits for the receive loop to exit.
// In-flight round trips fail with a closed-connection error.
func (n *Net) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	err := n.conn.Close()
	n.wg.Wait()
	return err
}

// Host returns the local stub host for id, materializing it (and every
// lower id) on first use. Pointers remain valid for the Net's lifetime.
func (n *Net) Host(id underlay.HostID) *underlay.Host {
	if id < 0 {
		panic(fmt.Sprintf("nettransport: negative host id %d", id))
	}
	n.hostMu.Lock()
	defer n.hostMu.Unlock()
	for n.u.NumHosts() <= int(id) {
		n.u.AddHost(n.as0, 0)
	}
	return n.u.Host(id)
}

// --- transport.Messenger ---

// Underlay returns the local stub network. Topology queries against it
// are flat (one AS); the usual single-goroutine access rule applies, so
// grow it only through Net.Host.
func (n *Net) Underlay() *underlay.Network { return n.u }

// Kernel returns the attached wall-clock-paced kernel (nil before
// AttachKernel).
func (n *Net) Kernel() *sim.Kernel { return n.kernel }

// Counters exposes the per-message-type counters: "<type>" counts frames
// sent, "<type>_bytes" their accounted payload bytes, "<type>_rx" frames
// received, plus the net_* transport internals (net_retry, net_timeout,
// net_rx_drop, net_tx_err).
func (n *Net) Counters() *metrics.CounterSet { return n.msgs }

// MatrixFor returns the traffic matrix shared by the given message types,
// creating and registering one on first use — same sharing semantics as
// the sim transport. With a single-AS stub every byte lands intra-AS.
func (n *Net) MatrixFor(msgTypes ...string) *metrics.TrafficMatrix {
	if len(msgTypes) == 0 {
		panic("nettransport: MatrixFor needs at least one message type")
	}
	n.matMu.Lock()
	defer n.matMu.Unlock()
	var m *metrics.TrafficMatrix
	for _, ty := range msgTypes {
		if ex := n.matrices[ty]; ex != nil {
			m = ex
			break
		}
	}
	if m == nil {
		m = metrics.NewTrafficMatrix()
	}
	for _, ty := range msgTypes {
		n.matrices[ty] = m
	}
	return m
}

// account charges one sent frame to the counter and matrix planes.
func (n *Net) account(msgType string, bytes uint64) {
	n.msgs.Get(msgType).Inc()
	n.msgs.Get(msgType + "_bytes").Add(bytes)
	n.matMu.Lock()
	m := n.matrices[msgType]
	n.matMu.Unlock()
	if m != nil {
		m.Add(n.as0.ID, n.as0.ID, bytes)
	}
}

// padded returns a payload of the given accounted size, clamped to
// MaxPayload so any Messenger byte count stays a single datagram. The
// accounting always records the requested size.
func padded(bytes uint64) []byte {
	if bytes == 0 {
		return nil
	}
	if bytes > MaxPayload {
		bytes = MaxPayload
	}
	return make([]byte, bytes)
}

// writeFrame encodes and transmits one frame to the book address of its
// To field.
func (n *Net) writeFrame(f *Frame) error {
	addr, ok := n.book.Get(f.To)
	if !ok {
		return fmt.Errorf("nettransport: no address for host %d", f.To)
	}
	return n.writeFrameTo(f, addr)
}

// writeFrameTo encodes and transmits one frame to an explicit address.
func (n *Net) writeFrameTo(f *Frame, addr netip.AddrPort) error {
	// Sized for an inline type name too, so encoding allocates once.
	buf, err := AppendFrame(make([]byte, 0, headerLen+1+len(f.Type)+len(f.Payload)), f)
	if err != nil {
		return err
	}
	_, err = n.conn.WriteToUDPAddrPort(buf, addr)
	return err
}

// Send delivers one one-way message of the given type and size. The
// message counts as sent once it leaves the socket; delivery is
// unconfirmed (use RoundTrip for confirmation), so OK reports only that
// a destination address existed and the write succeeded, and Latency is
// always zero.
func (n *Net) Send(from, to *underlay.Host, bytes uint64, msgType string) transport.Result {
	return n.SendPayload(to.ID, msgType, padded(bytes), bytes)
}

// SendPayload is Send with an explicit payload (accounted at accountBytes
// if non-zero, else at len(payload)).
func (n *Net) SendPayload(to underlay.HostID, msgType string, payload []byte, accountBytes uint64) transport.Result {
	if accountBytes == 0 {
		accountBytes = uint64(len(payload))
	}
	n.account(msgType, accountBytes)
	f := Frame{Kind: KindData, Type: msgType, From: n.cfg.Self, To: to, Payload: payload}
	if err := n.writeFrame(&f); err != nil {
		n.msgs.Get("net_tx_err").Inc()
		return transport.Result{}
	}
	return transport.Result{OK: true}
}

// errTimeout marks an attempt that got no response within the deadline.
var errTimeout = errors.New("nettransport: round trip timed out")

// call performs one request/response attempt with the given payload,
// returning the response frame and the measured wall RTT. addr, when
// valid, overrides the book lookup (the join handshake knows the
// bootstrap's address before it knows its id).
func (n *Net) call(to underlay.HostID, addr netip.AddrPort, msgType string, payload []byte, respBytes uint32, timeout time.Duration) (Frame, time.Duration, error) {
	id := n.reqID.Add(1)
	ch := make(chan Frame, 1)
	n.waitMu.Lock()
	n.waiters[id] = ch
	n.waitMu.Unlock()
	defer func() {
		n.waitMu.Lock()
		delete(n.waiters, id)
		n.waitMu.Unlock()
	}()

	f := Frame{Kind: KindReq, Type: msgType, From: n.cfg.Self, To: to,
		ReqID: id, RespBytes: respBytes, Payload: payload}
	start := time.Now()
	var werr error
	if addr.IsValid() {
		werr = n.writeFrameTo(&f, addr)
	} else {
		werr = n.writeFrame(&f)
	}
	if werr != nil {
		n.msgs.Get("net_tx_err").Inc()
		return Frame{}, 0, werr
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		return resp, time.Since(start), nil
	case <-timer.C:
		n.msgs.Get("net_timeout").Inc()
		return Frame{}, 0, errTimeout
	}
}

// ms converts a wall duration to sim.Duration milliseconds.
func ms(d time.Duration) sim.Duration { return sim.Duration(float64(d) / float64(time.Millisecond)) }

// RoundTrip sends a request and waits for its reply under a
// single-attempt policy (the Messenger default), returning the measured
// round-trip time.
func (n *Net) RoundTrip(from, to *underlay.Host, reqBytes, respBytes uint64,
	reqType, respType string) transport.Result {
	return n.RoundTripWith(transport.RetryPolicy{}, from, to, reqBytes, respBytes, reqType, respType)
}

// RoundTripWith is RoundTrip under a caller-supplied retry policy. Each
// attempt is a real datagram exchange bounded by the configured Timeout;
// Backoff waits are real sleeps, charged into the successful Result's
// Latency exactly as the sim backend charges them.
func (n *Net) RoundTripWith(p transport.RetryPolicy, from, to *underlay.Host,
	reqBytes, respBytes uint64, reqType, respType string) transport.Result {
	rb := respBytes
	if rb > MaxPayload {
		rb = MaxPayload
	}
	var waited sim.Duration
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			n.msgs.Get("net_retry").Inc()
		}
		n.account(reqType, reqBytes)
		resp, rtt, err := n.call(to.ID, netip.AddrPort{}, reqType, padded(reqBytes), uint32(rb), n.cfg.Timeout)
		if err == nil {
			// The reply leg is charged on the receiver side when it sends;
			// account the received reply here so this process's planes see
			// both directions of its own round trips.
			n.msgs.Get(respType + "_rx").Inc()
			n.msgs.Get(respType + "_rx_bytes").Add(uint64(len(resp.Payload)))
			lat := ms(rtt)
			n.rtt.Observe(float64(lat))
			return transport.Result{Latency: waited + lat, OK: true}
		}
		if attempt >= p.Budget {
			return transport.Result{}
		}
		if p.Backoff != nil {
			w := p.Backoff(attempt + 1)
			waited += w
			time.Sleep(time.Duration(float64(w) * float64(time.Millisecond)))
		}
	}
}

// Probe measures the RTT to a host with a probe/response pair of the
// given size, counted under type "probe" — a real measurement of the
// §3.2 kind, charging real measurement traffic.
func (n *Net) Probe(from, to *underlay.Host, bytes uint64) transport.Result {
	return n.RoundTrip(from, to, bytes, bytes, "probe", "probe")
}

// Call is the payload RPC the live overlay engines build on: request
// payload out, response payload back, single attempt, default timeout.
func (n *Net) Call(to underlay.HostID, msgType string, payload []byte) ([]byte, error) {
	return n.callObserved(to, netip.AddrPort{}, msgType, payload)
}

// CallAt is Call aimed at an explicit UDP address instead of a book
// entry — how a joining node reaches its bootstrap before learning its
// id (the response frame's From field, which the receive loop also
// learns into the book automatically).
func (n *Net) CallAt(addr *net.UDPAddr, msgType string, payload []byte) ([]byte, error) {
	return n.callObserved(-1, addrPortOf(addr), msgType, payload) // To = -1: id unknown
}

func (n *Net) callObserved(to underlay.HostID, addr netip.AddrPort, msgType string, payload []byte) ([]byte, error) {
	n.account(msgType, uint64(len(payload)))
	resp, rtt, err := n.call(to, addr, msgType, payload, 0, n.cfg.Timeout)
	if err != nil {
		return nil, err
	}
	n.rtt.Observe(float64(ms(rtt)))
	n.msgs.Get(resp.Type + "_rx").Inc()
	return resp.Payload, nil
}

// receiveLoop drains the socket until Close.
func (n *Net) receiveLoop() {
	defer n.wg.Done()
	buf := make([]byte, 65536)
	for {
		nr, raddr, err := n.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if n.closed.Load() {
				return
			}
			n.logf("nettransport: read: %v", err)
			continue
		}
		f, err := DecodeFrame(buf[:nr])
		if err != nil {
			n.msgs.Get("net_rx_bad").Inc()
			n.logf("nettransport: drop malformed frame from %v: %v", raddr, err)
			continue
		}
		if d := n.dropRx.Load(); d != nil && (*d)(&f) {
			n.msgs.Get("net_rx_drop").Inc()
			continue
		}
		// Learn or refresh the sender's address from the packet source —
		// a hello is therefore enough to become reachable cluster-wide.
		if f.From >= 0 && f.From != n.cfg.Self {
			n.book.SetAddrPort(f.From, raddr)
		}
		switch f.Kind {
		case KindData:
			n.msgs.Get(f.Type + "_rx").Inc()
			n.msgs.Get(f.Type + "_rx_bytes").Add(uint64(len(f.Payload)))
			n.handMu.RLock()
			onData := n.onData[f.Type]
			n.handMu.RUnlock()
			if onData != nil {
				fr := f
				go onData(fr.From, fr.Type, fr.Payload)
			}
		case KindReq:
			n.msgs.Get(f.Type + "_rx").Inc()
			n.msgs.Get(f.Type + "_rx_bytes").Add(uint64(len(f.Payload)))
			n.handMu.RLock()
			h := n.handlers[f.Type]
			n.handMu.RUnlock()
			fr := f
			if h == nil {
				// No handler: honour the RoundTrip contract with a padded
				// auto-reply of the requested size. Inline — no user code.
				n.reply(&fr, padded(uint64(fr.RespBytes)))
				continue
			}
			// Handlers run detached so they can issue nested calls
			// (flood relays) without stalling the receive loop.
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				defer func() {
					if r := recover(); r != nil {
						n.logf("nettransport: handler %s panicked: %v", fr.Type, r)
					}
				}()
				n.reply(&fr, h(fr.From, fr.Payload))
			}()
		case KindResp:
			n.waitMu.Lock()
			ch := n.waiters[f.ReqID]
			n.waitMu.Unlock()
			if ch != nil {
				select {
				case ch <- f:
				default: // duplicate response; first one won
				}
			}
		}
	}
}

// reply answers a KindReq frame. The response type is derived from the
// request type when no specific response vocabulary applies: the well
// known pairs (fd_ping→fd_ack, probe→probe) are honoured so counters on
// both sides line up with the sim backend's naming.
func (n *Net) reply(req *Frame, payload []byte) {
	respType := responseType(req.Type)
	n.account(respType, uint64(len(payload)))
	f := Frame{Kind: KindResp, Type: respType, From: n.cfg.Self, To: req.From,
		ReqID: req.ReqID, Payload: payload}
	if err := n.writeFrame(&f); err != nil {
		n.msgs.Get("net_tx_err").Inc()
	}
}

// responseType maps a request type to its reply type.
func responseType(reqType string) string {
	switch reqType {
	case "fd_ping":
		return "fd_ack"
	case "kad:find_node":
		return "kad:nodes"
	case "chord:find_succ":
		return "chord:succ"
	case "gnu:query":
		return "gnu:hit"
	default:
		return reqType
	}
}

func (n *Net) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

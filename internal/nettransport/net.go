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

// DataHandler observes one-way KindData frames (no response) of the
// type it was registered for.
type DataHandler func(from underlay.HostID, payload []byte)

// Net is the live plane's UDP RPC transport: payload requests with
// their replies (Call, CallAt), one-way frames (SendPayload), and the
// failure detector's byte-accounted pings (RoundTripWith), all carried
// as datagrams between actual processes. Every type it sends or accepts
// is a row of the closed message table (msgTable).
//
// Time is wall-clock: loss is real loss, latency is real latency, and
// runs are not reproducible per seed. The per-type counters and the RTT
// histogram feed the same metrics planes the sim backend feeds, which is
// what makes /metrics on a live node comparable with a recorded
// simulation.
type Net struct {
	cfg  Config
	conn *net.UDPConn
	book *AddressBook

	// hosts holds the failure detector's per-peer stubs (see Host).
	hostMu sync.Mutex
	hosts  map[underlay.HostID]*underlay.Host

	// kernel, when attached, is the wall-clock-paced sim kernel that
	// sim-time components (resilience.Detector) schedule on.
	kernel *sim.Kernel

	msgs *metrics.CounterSet
	rtt  *metrics.Histogram

	reqID   atomic.Uint64
	waitMu  sync.Mutex
	waiters map[uint64]chan Frame

	// handlers and onData are indexed by message-table id.
	handMu   sync.RWMutex
	handlers []Handler
	onData   []DataHandler

	// dropRx, when set, discards matching inbound frames before any
	// processing — the test hook for forcing timeouts and retries
	// without real packet loss. See SetDropRx.
	dropRx atomic.Pointer[func(f *Frame) bool]

	closed atomic.Bool
	wg     sync.WaitGroup
}

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
		hosts:    make(map[underlay.HostID]*underlay.Host),
		msgs:     metrics.NewCounterSet(),
		rtt:      metrics.NewLatencyHistogram(),
		waiters:  make(map[uint64]chan Frame),
		handlers: make([]Handler, len(msgTable)),
		onData:   make([]DataHandler, len(msgTable)),
	}
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

// Kernel returns the attached wall-clock-paced kernel (nil before
// AttachKernel).
func (n *Net) Kernel() *sim.Kernel { return n.kernel }

// RTT exposes the round-trip latency histogram (milliseconds).
func (n *Net) RTT() *metrics.Histogram { return n.rtt }

// Counters exposes the per-message-type counters: "<type>" counts frames
// sent, "<type>_bytes" their accounted payload bytes, "<type>_rx" frames
// received, plus the net_* transport internals (net_retry, net_timeout,
// net_rx_bad, net_rx_drop, net_tx_err). Every type is a message-table
// row, so the set of names is bounded whatever the network sends.
func (n *Net) Counters() *metrics.CounterSet { return n.msgs }

// Handle registers fn for a request type. Registering twice replaces.
// The type must be a table row that has a reply.
func (n *Net) Handle(msgType string, fn Handler) {
	t := mustRow(KindReq, msgType)
	n.handMu.Lock()
	n.handlers[t.id] = fn
	n.handMu.Unlock()
}

// HandleData registers the observer for one-way frames of the given
// table type. Registering twice replaces.
func (n *Net) HandleData(msgType string, fn DataHandler) {
	t := mustRow(KindData, msgType)
	n.handMu.Lock()
	n.onData[t.id] = fn
	n.handMu.Unlock()
}

func mustRow(k Kind, msgType string) *msgType {
	t, err := row(k, msgType)
	if err != nil {
		panic(err)
	}
	return t
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

// Host returns the failure detector's stub for peer id: a Host carrying
// that ID, permanently Up (the detector reads nothing else), created on
// first use and stable for the Net's lifetime. Each id costs one map
// entry, however large or sparse the ids a peer's book names.
func (n *Net) Host(id underlay.HostID) *underlay.Host {
	n.hostMu.Lock()
	defer n.hostMu.Unlock()
	h := n.hosts[id]
	if h == nil {
		h = &underlay.Host{ID: id, Up: true}
		n.hosts[id] = h
	}
	return h
}

// account charges one sent frame to its type's counters.
func (n *Net) account(t *msgType, bytes uint64) {
	n.msgs.Get(t.tx).Inc()
	n.msgs.Get(t.txBytes).Add(bytes)
}

// padded returns a payload of the given accounted size, clamped to
// MaxPayload so a ping of any byte count stays a single datagram. The
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

// addrOf returns the book address of a peer.
func (n *Net) addrOf(id underlay.HostID) (netip.AddrPort, error) {
	addr, ok := n.book.Get(id)
	if !ok {
		return addr, fmt.Errorf("nettransport: no address for host %d", id)
	}
	return addr, nil
}

// writeFrameTo encodes and transmits one frame to addr.
func (n *Net) writeFrameTo(f *Frame, addr netip.AddrPort) error {
	buf, err := AppendFrame(make([]byte, 0, headerLen+len(f.Payload)), f)
	if err != nil {
		return err
	}
	_, err = n.conn.WriteToUDPAddrPort(buf, addr)
	return err
}

// SendPayload sends one one-way frame of a table type to a book peer.
// Delivery is unconfirmed: a nil error reports only that the peer had an
// address and the write succeeded.
func (n *Net) SendPayload(to underlay.HostID, msgType string, payload []byte) error {
	t, err := row(KindData, msgType)
	if err != nil {
		return err
	}
	n.account(t, uint64(len(payload)))
	addr, err := n.addrOf(to)
	if err == nil {
		f := Frame{Kind: KindData, Type: t.name, From: n.cfg.Self, To: to, Payload: payload}
		err = n.writeFrameTo(&f, addr)
	}
	if err != nil {
		n.msgs.Get("net_tx_err").Inc()
	}
	return err
}

// errTimeout marks an attempt that got no response within the deadline.
var errTimeout = errors.New("nettransport: round trip timed out")

// call performs one request/response attempt of a table request type,
// returning the response frame and the measured wall RTT. addr, when
// valid, overrides the book lookup (the join handshake knows the
// bootstrap's address before it knows its id).
func (n *Net) call(to underlay.HostID, addr netip.AddrPort, t *msgType, payload []byte, respBytes uint32) (Frame, time.Duration, error) {
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

	f := Frame{Kind: KindReq, Type: t.name, From: n.cfg.Self, To: to,
		ReqID: id, RespBytes: respBytes, Payload: payload}
	start := time.Now()
	var err error
	if !addr.IsValid() {
		addr, err = n.addrOf(to)
	}
	if err == nil {
		err = n.writeFrameTo(&f, addr)
	}
	if err != nil {
		n.msgs.Get("net_tx_err").Inc()
		return Frame{}, 0, err
	}
	timer := time.NewTimer(n.cfg.Timeout)
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

// RoundTripWith is the failure detector's ping: a reqBytes request of
// table type reqType to host to, answered by its table reply (respType
// names it too, as the sim transport needs it named) padded to
// respBytes. Each attempt is a real datagram exchange bounded by the
// configured Timeout; Backoff waits are real sleeps, charged into the
// successful Result's Latency exactly as the sim backend charges them.
// The reported latency is the measured RTT in sim.Duration milliseconds.
func (n *Net) RoundTripWith(p transport.RetryPolicy, from, to *underlay.Host,
	reqBytes, respBytes uint64, reqType, respType string) transport.Result {
	t, err := row(KindReq, reqType)
	if err != nil {
		return transport.Result{}
	}
	rb := min(respBytes, MaxPayload)
	var waited sim.Duration
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			n.msgs.Get("net_retry").Inc()
		}
		n.account(t, reqBytes)
		resp, rtt, err := n.call(to.ID, netip.AddrPort{}, t, padded(reqBytes), uint32(rb))
		if err == nil {
			// The reply leg is charged on the receiver side when it sends;
			// count the received reply's bytes here so this process's
			// planes see both directions of its own pings.
			n.msgs.Get(msgTable[t.reply].rxBytes).Add(uint64(len(resp.Payload)))
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

// Call is the payload RPC the live overlay engines build on: request
// payload out, response payload back, single attempt, default timeout.
func (n *Net) Call(to underlay.HostID, msgType string, payload []byte) ([]byte, error) {
	return n.callObserved(to, netip.AddrPort{}, msgType, payload)
}

// CallAt is Call aimed at an explicit UDP address instead of a book
// entry — how a joining node reaches its bootstrap before learning its
// id (the hello reply's book carries it).
func (n *Net) CallAt(addr *net.UDPAddr, msgType string, payload []byte) ([]byte, error) {
	return n.callObserved(-1, addrPortOf(addr), msgType, payload) // To = -1: id unknown
}

func (n *Net) callObserved(to underlay.HostID, addr netip.AddrPort, msgType string, payload []byte) ([]byte, error) {
	t, err := row(KindReq, msgType)
	if err != nil {
		return nil, err
	}
	n.account(t, uint64(len(payload)))
	resp, rtt, err := n.call(to, addr, t, payload, 0)
	if err != nil {
		return nil, err
	}
	n.rtt.Observe(float64(ms(rtt)))
	return resp.Payload, nil
}

// receiveLoop drains the socket until Close. Addresses are never learned
// here: a frame's From is a claim, and its source may be anyone's, so
// only the book payloads the engines merge teach addresses. A request is
// answered at the address it came from.
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
		var f Frame
		t, err := decodeFrame(buf[:nr], &f)
		if err != nil {
			n.msgs.Get("net_rx_bad").Inc()
			n.logf("nettransport: drop malformed frame from %v: %v", raddr, err)
			continue
		}
		if d := n.dropRx.Load(); d != nil && (*d)(&f) {
			n.msgs.Get("net_rx_drop").Inc()
			continue
		}
		switch f.Kind {
		case KindData:
			n.msgs.Get(t.rx).Inc()
			n.msgs.Get(t.rxBytes).Add(uint64(len(f.Payload)))
			n.handMu.RLock()
			onData := n.onData[t.id]
			n.handMu.RUnlock()
			if onData != nil {
				go onData(f.From, f.Payload)
			}
		case KindReq:
			n.msgs.Get(t.rx).Inc()
			n.msgs.Get(t.rxBytes).Add(uint64(len(f.Payload)))
			n.handMu.RLock()
			h := n.handlers[t.id]
			n.handMu.RUnlock()
			if h == nil {
				// No handler: answer with a padded auto-reply of the
				// requested size (the detector's fd_ping). Inline — no
				// user code.
				n.reply(&f, t, raddr, padded(uint64(f.RespBytes)))
				continue
			}
			// Handlers run detached so they can issue nested calls
			// (flood relays) without stalling the receive loop.
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				defer func() {
					if r := recover(); r != nil {
						n.logf("nettransport: handler %s panicked: %v", t.name, r)
					}
				}()
				n.reply(&f, t, raddr, h(f.From, f.Payload))
			}()
		case KindResp:
			n.waitMu.Lock()
			ch := n.waiters[f.ReqID]
			n.waitMu.Unlock()
			if ch != nil {
				select {
				case ch <- f:
					n.msgs.Get(t.rx).Inc()
				default: // duplicate response; first one won
				}
			}
		}
	}
}

// reply answers a request of table type t at the address it came from,
// with the table's reply type.
func (n *Net) reply(req *Frame, t *msgType, to netip.AddrPort, payload []byte) {
	rt := &msgTable[t.reply]
	n.account(rt, uint64(len(payload)))
	f := Frame{Kind: KindResp, Type: rt.name, From: n.cfg.Self, To: req.From,
		ReqID: req.ReqID, Payload: payload}
	if err := n.writeFrameTo(&f, to); err != nil {
		n.msgs.Get("net_tx_err").Inc()
	}
}

func (n *Net) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

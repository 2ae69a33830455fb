package livenode

// chaos.go wires a Node into the live chaos plane (internal/chaos
// live.go): AS placement over the NodeKey space so Window.scoped
// survives the flat localhost underlay, drop-filter arming over the
// transport's SetDropRx hook, and Member — the restartable in-process
// cluster member the LiveInjector crashes and revives.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"syscall"
	"time"

	"unap2p/internal/chaos"
	"unap2p/internal/nettransport"
	"unap2p/internal/underlay"
)

// PlaceAS maps a host id onto one of numASes synthetic ASes. The
// placement is a pure function of the id (NodeKey modulo the AS count),
// so every process in a live cluster computes the same placement with
// no coordination — the same property NodeKey gives lookups their
// ground truth. numASes < 1 collapses everyone into AS 0.
func PlaceAS(id underlay.HostID, numASes int) int {
	if numASes < 1 {
		return 0
	}
	return int(NodeKey(id) % uint64(numASes))
}

// ASPlacement returns PlaceAS curried over numASes, in the shape
// chaos.LiveConfig.ASOf and NewLiveFilter want.
func ASPlacement(numASes int) func(underlay.HostID) int {
	return func(id underlay.HostID) int { return PlaceAS(id, numASes) }
}

// ArmChaos installs the schedule's partition and loss windows as this
// node's inbound drop filter, interpreted against wall time from epoch
// with AS scoping over ASPlacement(numASes). Every node of a campaign
// arms the same (schedule, epoch, numASes, seed) tuple; crash waves are
// the orchestrator's job (chaos.LiveInjector), not the filter's.
func (n *Node) ArmChaos(sched chaos.Schedule, epoch time.Time, numASes int, seed int64) error {
	if err := sched.Validate(); err != nil {
		return fmt.Errorf("livenode: chaos schedule: %w", err)
	}
	f := chaos.NewLiveFilter(sched, chaos.LiveClock{Epoch: epoch},
		n.cfg.ID, ASPlacement(numASes), seed)
	n.net.SetDropRx(func(fr *nettransport.Frame) bool { return f.Drop(fr.From) })
	return nil
}

// DisarmChaos removes the chaos drop filter.
func (n *Node) DisarmChaos() { n.net.SetDropRx(nil) }

// ChaosSubject adapts the node to the chaos.Subject the invariant
// checker runs against: Refs is the membership view the engines route
// over (minus self — a node referencing itself is not a routing hazard),
// Evicted is the failure detector's ledger.
func (n *Node) ChaosSubject() chaos.Subject { return liveSubject{n} }

type liveSubject struct{ n *Node }

func (s liveSubject) Refs() []underlay.HostID {
	refs := make([]underlay.HostID, 0, s.n.Peers())
	for _, id := range s.n.Members() {
		if id != s.n.cfg.ID {
			refs = append(refs, id)
		}
	}
	return refs
}

func (s liveSubject) Evicted() []underlay.HostID { return s.n.Evicted() }

// StartRetry is Start hardened against ephemeral-port collision: when
// the bind loses a :0 race (EADDRINUSE), it backs off briefly and tries
// again. Deterministic config errors fail immediately.
func StartRetry(cfg Config, attempts int) (*Node, error) {
	var err error
	for i := 0; i < attempts; i++ {
		var n *Node
		n, err = Start(cfg)
		if err == nil {
			return n, nil
		}
		if !addrInUse(err) {
			return nil, err
		}
		time.Sleep(time.Duration(i+1) * 20 * time.Millisecond)
	}
	return nil, fmt.Errorf("livenode: %d bind attempts failed: %w", attempts, err)
}

func addrInUse(err error) bool {
	return errors.Is(err, syscall.EADDRINUSE) ||
		strings.Contains(err.Error(), "address already in use")
}

// Member wraps a Node as a chaos.LiveMember + chaos.DropArmer: the
// in-process, race-detectable cluster member the live campaign tests
// drive. Kill closes the node — from every peer's perspective it just
// stops answering. Revive boots a replacement process-in-a-goroutine
// with the same id on a fresh ephemeral port and rejoins it through
// the normal hello/welcome path.
type Member struct {
	mu        sync.Mutex
	node      *Node
	cfg       Config
	bootstrap string
	drop      func(from underlay.HostID) bool
}

// NewMember wraps a started node. bootstrap is the address Revive
// rejoins through ("" for the cluster seed, which revives standalone).
func NewMember(n *Node, bootstrap string) *Member {
	return &Member{node: n, cfg: n.cfg, bootstrap: bootstrap}
}

// ID implements chaos.LiveMember.
func (m *Member) ID() underlay.HostID { return m.cfg.ID }

// Node returns the current underlying node (a new one after each
// Revive).
func (m *Member) Node() *Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.node
}

// Kill implements chaos.LiveMember by closing the node outright —
// detector stopped, socket gone, no goodbye to the cluster.
func (m *Member) Kill() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.node.Close()
}

// Revive restarts the member: same id and overlay, fresh ephemeral
// port (the old one may be taken), rejoin via the bootstrap. The drop
// filter armed on the old incarnation is re-armed on the new one —
// schedule windows outlive a crash.
func (m *Member) Revive() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cfg := m.cfg
	cfg.Listen = "" // never reclaim the old port; peers relearn it from the rejoin hellos
	n, err := StartRetry(cfg, 5)
	if err != nil {
		return fmt.Errorf("livenode: revive %d: %w", m.cfg.ID, err)
	}
	if m.drop != nil {
		drop := m.drop
		n.net.SetDropRx(func(fr *nettransport.Frame) bool { return drop(fr.From) })
	}
	if m.bootstrap != "" {
		if err := n.Join(m.bootstrap); err != nil {
			n.Close()
			return fmt.Errorf("livenode: revive %d: %w", m.cfg.ID, err)
		}
	}
	m.node = n
	return nil
}

// ArmDrop implements chaos.DropArmer on the current incarnation and
// remembers the filter for re-arming after Revive.
func (m *Member) ArmDrop(fn func(from underlay.HostID) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drop = fn
	m.node.net.SetDropRx(func(fr *nettransport.Frame) bool { return fn(fr.From) })
}

// DisarmDrop implements chaos.DropArmer.
func (m *Member) DisarmDrop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drop = nil
	m.node.net.SetDropRx(nil)
}

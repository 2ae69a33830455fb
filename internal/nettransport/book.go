package nettransport

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"

	"unap2p/internal/underlay"
)

// AddressBook maps cluster-wide host ids to UDP addresses — the live
// counterpart of the simulated underlay's host table. It is written
// concurrently by the join handshake and the receive loop (which learns
// sender addresses) and read on every send, so access is guarded by a
// read-write mutex; the entry set is tiny (one per peer), making
// contention irrelevant next to the socket syscalls around it.
//
// Entries are netip.AddrPort values, stored unmapped so an IPv4 peer
// seen through a dual-stack socket (::ffff:a.b.c.d) is the same entry
// as the same peer seen through an IPv4 socket, and so every entry can
// be written to from either kind of socket.
type AddressBook struct {
	mu    sync.RWMutex
	addrs map[underlay.HostID]netip.AddrPort
	// ids caches the sorted id set; nil when an id was added or removed
	// since it was built. A built slice is never written again, so IDs
	// may copy it outside the lock.
	ids     []underlay.HostID
	version uint64 // bumped on every change; Version lets tests await convergence
}

// NewAddressBook returns an empty book.
func NewAddressBook() *AddressBook {
	return &AddressBook{addrs: make(map[underlay.HostID]netip.AddrPort)}
}

// addrPortOf converts a net address to the book's unmapped form. A
// host-less address (":9000") means this host, as it does for the net
// package's own writes, so it maps to the unspecified IPv4 address.
func addrPortOf(a *net.UDPAddr) netip.AddrPort {
	if a == nil {
		return netip.AddrPort{}
	}
	if len(a.IP) == 0 {
		return netip.AddrPortFrom(netip.IPv4Unspecified(), uint16(a.Port))
	}
	return unmapped(a.AddrPort())
}

// unmapped strips an IPv4-in-IPv6 mapping: WriteToUDPAddrPort on an
// IPv4 socket rejects a mapped address, which dual-stack sockets report
// for IPv4 senders.
func unmapped(a netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(a.Addr().Unmap(), a.Port())
}

// Set is SetAddrPort for a net.UDPAddr; nil is ignored.
func (b *AddressBook) Set(id underlay.HostID, addr *net.UDPAddr) bool {
	return b.SetAddrPort(id, addrPortOf(addr))
}

// SetAddrPort records (or replaces) the address for id, reporting
// whether the entry changed; an invalid address is ignored. Last write
// wins: a peer that rebinds (NAT, restart) overwrites its stale entry
// the moment any frame arrives from it.
func (b *AddressBook) SetAddrPort(id underlay.HostID, addr netip.AddrPort) bool {
	addr = unmapped(addr)
	if !addr.Addr().IsValid() {
		return false
	}
	// Nearly every call refreshes an entry that is already current (the
	// receive loop learns every frame's sender), so check under the read
	// lock first.
	b.mu.RLock()
	old, ok := b.addrs[id]
	b.mu.RUnlock()
	if ok && old == addr {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	old, ok = b.addrs[id]
	if ok && old == addr {
		return false
	}
	if !ok {
		b.ids = nil
	}
	b.addrs[id] = addr
	b.version++
	return true
}

// Remove drops the entry for id (after an eviction), reporting whether
// it existed.
func (b *AddressBook) Remove(id underlay.HostID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.addrs[id]; !ok {
		return false
	}
	delete(b.addrs, id)
	b.ids = nil
	b.version++
	return true
}

// Get returns the address for id.
func (b *AddressBook) Get(id underlay.HostID) (netip.AddrPort, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	a, ok := b.addrs[id]
	return a, ok
}

// IDs returns every known host id, sorted, in a slice the caller owns.
func (b *AddressBook) IDs() []underlay.HostID {
	b.mu.RLock()
	ids := b.ids
	b.mu.RUnlock()
	if ids == nil {
		b.mu.Lock()
		if b.ids == nil {
			b.ids = make([]underlay.HostID, 0, len(b.addrs))
			for id := range b.addrs {
				b.ids = append(b.ids, id)
			}
			slices.Sort(b.ids)
		}
		ids = b.ids
		b.mu.Unlock()
	}
	return slices.Clone(ids)
}

// Len reports the number of entries.
func (b *AddressBook) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.addrs)
}

// Version reports the change counter — it increases on every effective
// Set/Remove, so pollers can detect quiescence.
func (b *AddressBook) Version() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.version
}

// Encode serializes the book (sorted by id) for the hello/welcome
// handshake: count(4), then per entry id(4) + addrlen(1) + "ip:port",
// the address in netip text form ("192.0.2.1:4001", "[2001:db8::1]:4001",
// "[fe80::1%eth0]:4001"). Textual addresses sidestep IPv4/IPv6
// representation pitfalls.
func (b *AddressBook) Encode() []byte {
	return b.EncodeIDs(b.IDs())
}

// EncodeIDs serializes the entries for the given ids in Encode's format,
// silently skipping ids the book does not hold. The Kademlia engine uses
// this to answer find_node with a mini address book of the k closest
// peers, so a querier learns addresses along with ids.
func (b *AddressBook) EncodeIDs(ids []underlay.HostID) []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	// Room for every entry at the longest IPv4 text ("255.255.255.255:65535").
	out := make([]byte, 4, 4+len(ids)*(4+1+21))
	n := 0
	for _, id := range ids {
		a, ok := b.addrs[id]
		if !ok {
			continue
		}
		out = binary.BigEndian.AppendUint32(out, uint32(int32(id)))
		at := len(out)
		out = a.AppendTo(append(out, 0))
		out[at] = byte(len(out) - at - 1)
		n++
	}
	binary.BigEndian.PutUint32(out, uint32(n))
	return out
}

// PeerEntry is one decoded address-book entry.
type PeerEntry struct {
	ID   underlay.HostID
	Addr netip.AddrPort
}

// DecodePeers parses an Encode/EncodeIDs payload. Malformed input
// returns an error, never panics. Addresses must be numeric ip:port
// text, exactly what Encode writes: a peer's payload is network input,
// so a host or service name is rejected rather than looked up.
func DecodePeers(p []byte) ([]PeerEntry, error) {
	if len(p) < 4 {
		return nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(p)
	p = p[4:]
	// Bound the allocation by what the buffer can actually hold: every
	// entry needs at least id(4)+addrlen(1) bytes, so a count claiming
	// more than len(p)/5 entries is lying. Without this check a 4-byte
	// payload claiming 0xFFFFFFFF entries would allocate ~100 GB.
	if int64(n)*5 > int64(len(p)) {
		return nil, ErrTruncated
	}
	entries := make([]PeerEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(p) < 5 {
			return entries, ErrTruncated
		}
		id := underlay.HostID(int32(binary.BigEndian.Uint32(p)))
		alen := int(p[4])
		p = p[5:]
		if len(p) < alen {
			return entries, ErrTruncated
		}
		addr, perr := netip.ParseAddrPort(string(p[:alen]))
		if perr != nil {
			return entries, fmt.Errorf("nettransport: bad book entry for host %d: %w", id, perr)
		}
		p = p[alen:]
		entries = append(entries, PeerEntry{ID: id, Addr: addr})
	}
	return entries, nil
}

// Merge decodes an Encode payload into the book, skipping entries it
// already has verbatim. It returns how many entries were added or
// updated. Malformed input returns an error, never panics.
func (b *AddressBook) Merge(p []byte) (changed int, err error) {
	entries, err := DecodePeers(p)
	for _, e := range entries {
		if b.SetAddrPort(e.ID, e.Addr) {
			changed++
		}
	}
	return changed, err
}

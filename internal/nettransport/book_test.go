package nettransport

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"unap2p/internal/underlay"
)

func udpAddr(t *testing.T, s string) *net.UDPAddr {
	t.Helper()
	a, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAddressBookSetGetRemove(t *testing.T) {
	b := NewAddressBook()
	a1 := udpAddr(t, "127.0.0.1:4001")
	if !b.Set(1, a1) {
		t.Fatal("first Set reported no change")
	}
	if b.Set(1, udpAddr(t, "127.0.0.1:4001")) {
		t.Fatal("identical re-Set reported a change")
	}
	if !b.Set(1, udpAddr(t, "127.0.0.1:4002")) {
		t.Fatal("rebind did not report a change")
	}
	got, ok := b.Get(1)
	if !ok || got.Port() != 4002 {
		t.Fatalf("Get(1) = %v, %v after rebind", got, ok)
	}
	v := b.Version()
	if !b.Remove(1) || b.Remove(1) {
		t.Fatal("Remove semantics broken")
	}
	if b.Version() <= v {
		t.Fatal("Remove did not bump the version")
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after removal", b.Len())
	}
}

func TestAddressBookEncodeMerge(t *testing.T) {
	b := NewAddressBook()
	b.Set(3, udpAddr(t, "127.0.0.1:4003"))
	b.Set(1, udpAddr(t, "127.0.0.1:4001"))
	b.Set(2, udpAddr(t, "127.0.0.1:4002"))

	other := NewAddressBook()
	other.Set(1, udpAddr(t, "127.0.0.1:4001")) // already known
	changed, err := other.Merge(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if changed != 2 {
		t.Fatalf("Merge changed %d entries, want 2", changed)
	}
	if got := other.IDs(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("merged IDs = %v", got)
	}

	// Subset encoding carries only the requested ids.
	entries, err := DecodePeers(b.EncodeIDs([]underlay.HostID{2, 99}))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != 2 || entries[0].Addr.Port() != 4002 {
		t.Fatalf("EncodeIDs subset decoded to %v", entries)
	}

	// Malformed payloads error instead of panicking.
	if _, err := DecodePeers([]byte{0, 0}); err == nil {
		t.Fatal("truncated header accepted")
	}
	trunc := b.Encode()
	if _, err := DecodePeers(trunc[:len(trunc)-3]); err == nil {
		t.Fatal("truncated entry accepted")
	}
}

// TestDecodePeersHugeCount is the regression test for the
// attacker-controlled allocation: a 4-byte payload claiming 0xFFFFFFFF
// entries must be rejected before make() sizes a slice to the claim —
// one welcome datagram must not pin ~100 GB. The count is validated
// against what the remaining buffer can physically hold (≥5 bytes per
// entry).
func TestDecodePeersHugeCount(t *testing.T) {
	cases := [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF},             // max count, empty body
		{0x00, 0x00, 0x01, 0x00},             // modest lie, still empty body
		{0x00, 0x00, 0x00, 0x02, 0, 0, 0, 1}, // claims 2, holds < 1 entry
	}
	for _, p := range cases {
		entries, err := DecodePeers(p)
		if err == nil {
			t.Fatalf("DecodePeers(%x) accepted an impossible count", p)
		}
		if len(entries) != 0 {
			t.Fatalf("DecodePeers(%x) returned %d entries with its error", p, len(entries))
		}
	}

	// The bound must not reject honest payloads at the boundary: one
	// real entry is exactly count(4)+id(4)+len(1)+addr bytes.
	b := NewAddressBook()
	b.Set(7, udpAddr(t, "127.0.0.1:4007"))
	if _, err := DecodePeers(b.Encode()); err != nil {
		t.Fatalf("valid single-entry payload rejected: %v", err)
	}
}

// TestAddressBookEncodeGolden pins the peer codec's bytes for every
// address family the book holds, generated by the codec as it stood
// before the book moved from net.UDPAddr to netip.AddrPort (which wrote
// UDPAddr.String()).
func TestAddressBookEncodeGolden(t *testing.T) {
	b := NewAddressBook()
	b.Set(1, &net.UDPAddr{IP: net.IP{192, 0, 2, 1}, Port: 4001})
	b.Set(2, &net.UDPAddr{IP: net.ParseIP("2001:db8::2"), Port: 4002})
	b.Set(3, &net.UDPAddr{IP: net.ParseIP("fe80::3"), Zone: "eth0", Port: 4003})
	b.Set(4, &net.UDPAddr{IP: net.ParseIP("::ffff:192.0.2.4"), Port: 4004})
	b.Set(-5, &net.UDPAddr{IP: net.IPv6loopback, Port: 65535})
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"Encode", b.Encode(), "00000005" +
			"fffffffb" + "0b" + hex.EncodeToString([]byte("[::1]:65535")) +
			"00000001" + "0e" + hex.EncodeToString([]byte("192.0.2.1:4001")) +
			"00000002" + "12" + hex.EncodeToString([]byte("[2001:db8::2]:4002")) +
			"00000003" + "13" + hex.EncodeToString([]byte("[fe80::3%eth0]:4003")) +
			"00000004" + "0e" + hex.EncodeToString([]byte("192.0.2.4:4004"))},
		{"EncodeIDs", b.EncodeIDs([]underlay.HostID{4, 99, 3, 1}), "00000003" +
			"00000004" + "0e" + hex.EncodeToString([]byte("192.0.2.4:4004")) +
			"00000003" + "13" + hex.EncodeToString([]byte("[fe80::3%eth0]:4003")) +
			"00000001" + "0e" + hex.EncodeToString([]byte("192.0.2.1:4001"))},
		{"EncodeIDs(nil)", b.EncodeIDs(nil), "00000000"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestDecodePeersNumericOnly: a peer entry is network input, so a host
// or service name must be rejected as malformed, never looked up.
func TestDecodePeersNumericOnly(t *testing.T) {
	for _, addr := range []string{"localhost:4001", "127.0.0.1:http", "example.com:80", ":4001"} {
		p := binary.BigEndian.AppendUint32(nil, 1)
		p = binary.BigEndian.AppendUint32(p, 9)
		p = append(p, byte(len(addr)))
		p = append(p, addr...)
		entries, err := DecodePeers(p)
		if err == nil || len(entries) != 0 {
			t.Fatalf("DecodePeers accepted %q: %v, %v", addr, entries, err)
		}
		var dnsErr *net.DNSError
		if errors.As(err, &dnsErr) {
			t.Fatalf("DecodePeers resolved %q: %v", addr, err)
		}
	}
}

// TestAddressBookIDsCache: IDs is served from a cache that must follow
// every added or removed id, and must hand out a slice the caller may
// overwrite (Core.members filters it in place).
func TestAddressBookIDsCache(t *testing.T) {
	b := NewAddressBook()
	for _, id := range []underlay.HostID{5, 1, 3} {
		b.Set(id, udpAddr(t, "127.0.0.1:4000"))
	}
	ids := b.IDs()
	if !slices.Equal(ids, []underlay.HostID{1, 3, 5}) {
		t.Fatalf("IDs = %v", ids)
	}
	ids[0] = 99
	if got := b.IDs(); got[0] != 1 {
		t.Fatalf("IDs shares its slice with callers: %v", got)
	}
	b.Set(3, udpAddr(t, "127.0.0.1:4001")) // rebind: same id set
	b.Set(2, udpAddr(t, "127.0.0.1:4002"))
	b.Remove(5)
	if got := b.IDs(); !slices.Equal(got, []underlay.HostID{1, 2, 3}) {
		t.Fatalf("IDs after add and remove = %v", got)
	}
	if b.Set(4, nil) || b.Len() != 3 {
		t.Fatal("Set accepted a nil address")
	}
}

// TestAddressBookUnmapsIPv4: an IPv4 peer seen through a dual-stack
// socket (::ffff:a.b.c.d) is the same entry as through an IPv4 socket,
// and is stored in the IPv4 form an IPv4 socket can write to.
func TestAddressBookUnmapsIPv4(t *testing.T) {
	b := NewAddressBook()
	b.Set(1, &net.UDPAddr{IP: net.IP{127, 0, 0, 1}, Port: 4001})
	if b.SetAddrPort(1, netip.MustParseAddrPort("[::ffff:127.0.0.1]:4001")) {
		t.Fatal("v4-in-v6 form of the same address reported a change")
	}
	if b.Set(1, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4001}) {
		t.Fatal("16-byte IPv4 form of the same address reported a change")
	}
	b.SetAddrPort(2, netip.MustParseAddrPort("[::ffff:10.0.0.2]:4002"))
	if got, _ := b.Get(2); got != netip.MustParseAddrPort("10.0.0.2:4002") {
		t.Fatalf("Get(2) = %v, want the unmapped address", got)
	}
}

// TestAddressBookConcurrent: writers add, rebind and remove entries
// while readers take IDs (the cached slice) and encode; every IDs result
// must be sorted and duplicate-free, and callers' in-place edits must
// not reach the cache. Run under -race.
func TestAddressBookConcurrent(t *testing.T) {
	b := NewAddressBook()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := underlay.HostID((w*7 + i) % 32)
				b.SetAddrPort(id, netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(4000+i%3)))
				if i%5 == 0 {
					b.Remove(id)
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ids := b.IDs()
				for j := 1; j < len(ids); j++ {
					if ids[j-1] >= ids[j] {
						t.Errorf("IDs not sorted and unique: %v", ids)
						return
					}
				}
				for j := range ids {
					ids[j] = -1
				}
				if _, err := DecodePeers(b.EncodeIDs(b.IDs())); err != nil {
					t.Errorf("encode/decode under writes: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

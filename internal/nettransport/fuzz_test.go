package nettransport

import (
	"bytes"
	"net"
	"testing"

	"unap2p/internal/underlay"
)

// FuzzDecodePeers pins the address-book codec's safety and round-trip
// properties: DecodePeers never panics and never over-allocates on a
// lying count (the huge-count hazard), and any payload a book accepts
// re-encodes canonically — Merge(Encode(Merge(data))) is a fixpoint.
func FuzzDecodePeers(f *testing.F) {
	// Valid encodings seed the format…
	b := NewAddressBook()
	for i, addr := range []string{"127.0.0.1:4001", "127.0.0.1:4002", "[::1]:4003"} {
		a, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			f.Fatal(err)
		}
		b.Set(underlay.HostID(i), a)
	}
	b.Set(3, &net.UDPAddr{IP: net.ParseIP("fe80::3"), Zone: "eth0", Port: 4004})
	b.Set(4, &net.UDPAddr{IP: net.ParseIP("::ffff:192.0.2.4"), Port: 4005})
	f.Add(b.Encode())
	f.Add(NewAddressBook().Encode())
	// …and the known attack shapes seed the reject paths: a lying count,
	// and names a resolver would look up (the decoder must not).
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 1})
	f.Add([]byte{})
	for _, name := range []string{"localhost:4001", "127.0.0.1:http"} {
		p := []byte{0, 0, 0, 1, 0, 0, 0, 9, byte(len(name))}
		f.Add(append(p, name...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodePeers(data)
		// Safety: every returned entry must have been physically present
		// in the buffer — the allocation bound in action.
		if len(entries) > len(data)/5 {
			t.Fatalf("%d entries decoded from %d bytes (min 5 bytes/entry)", len(entries), len(data))
		}
		if err != nil && len(entries) == 0 {
			return // rejected outright, nothing more to check
		}
		// Round trip: merge what decoded into a book (partial decodes
		// merge their prefix), encode, and the re-encoding must describe
		// exactly the same peer set — a fixpoint under a second
		// merge+encode.
		book := NewAddressBook()
		book.Merge(data)
		once := book.Encode()
		again := NewAddressBook()
		if _, err := again.Merge(once); err != nil {
			t.Fatalf("re-merge of canonical encoding failed: %v", err)
		}
		if twice := again.Encode(); !bytes.Equal(once, twice) {
			t.Fatalf("encode not a fixpoint:\n once %x\ntwice %x", once, twice)
		}
	})
}

// FuzzWireCodec pins the two wire-codec safety properties the daemon
// relies on: decode(encode(m)) == m for every encodable frame, and
// DecodeFrame never panics on arbitrary bytes (a malformed datagram
// must be droppable, not fatal).
func FuzzWireCodec(f *testing.F) {
	// Seed with valid encodings so the fuzzer starts inside the format…
	seeds := []Frame{
		{Kind: KindData, Type: "data"},
		{Kind: KindReq, Type: "fd_ping", From: 1, To: 2, ReqID: 9, RespBytes: 16},
		{Kind: KindResp, Type: "fd_ack", From: 2, To: 1, ReqID: 9, Payload: []byte{1, 2, 3}},
		{Kind: KindReq, Type: "weird/type", From: -1, To: 1 << 30, ReqID: ^uint64(0), Payload: []byte("p")},
	}
	for _, s := range seeds {
		b, err := AppendFrame(nil, &s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// …and with raw garbage so it also explores the reject paths.
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, wireVersion, 0, 0xFF, 200})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: decoding arbitrary bytes never panics (the testing
		// harness converts a panic into a failure automatically).
		frame, err := DecodeFrame(data)
		if err != nil {
			return
		}
		// Property 2: anything that decodes must re-encode and decode back
		// to the same frame — the codec is a bijection on its valid set.
		buf, err := AppendFrame(nil, &frame)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v (frame %+v)", err, frame)
		}
		again, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v (frame %+v)", err, frame)
		}
		if !frameEqual(&frame, &again) {
			t.Fatalf("decode/encode/decode mismatch:\n first %+v\nsecond %+v", frame, again)
		}
	})
}

package nettransport

import (
	"net"
	"testing"
	"time"

	"unap2p/internal/underlay"
)

// benchBook is a find_node-sized address book: eight loopback peers.
func benchBook() (*AddressBook, []underlay.HostID) {
	b := NewAddressBook()
	var ids []underlay.HostID
	for i := 0; i < 8; i++ {
		id := underlay.HostID(i)
		ids = append(ids, id)
		b.Set(id, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000 + i})
	}
	return b, ids
}

var benchSink int

// BenchmarkLivePeersCodec is one kad:nodes payload's life: the answering
// node encodes eight entries, the querier decodes them.
func BenchmarkLivePeersCodec(b *testing.B) {
	book, ids := benchBook()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peers, err := DecodePeers(book.EncodeIDs(ids))
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(peers)
	}
}

// BenchmarkLiveFrameCodec encodes and decodes a kad:nodes reply frame.
func BenchmarkLiveFrameCodec(b *testing.B) {
	book, ids := benchBook()
	f := Frame{Kind: KindResp, Type: "kad:nodes", From: 7, To: 3, ReqID: 12345, Payload: book.EncodeIDs(ids)}
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendFrame(buf[:0], &f); err != nil {
			b.Fatal(err)
		}
		g, err := DecodeFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(g.Payload)
	}
}

// BenchmarkLiveNetCall is one payload RPC between two Nets over loopback
// UDP: request out, handler, response back.
func BenchmarkLiveNetCall(b *testing.B) {
	var nets [2]*Net
	for i := range nets {
		n, err := Listen(Config{Self: underlay.HostID(i), Timeout: time.Second})
		if err != nil {
			b.Skipf("environment forbids UDP sockets: %v", err)
		}
		defer n.Close()
		nets[i] = n
	}
	a, srv := nets[0], nets[1]
	a.Book().Set(srv.Self(), srv.LocalAddr())
	srv.Book().Set(a.Self(), a.LocalAddr())
	reply := make([]byte, 64)
	srv.Handle("kad:find_node", func(underlay.HostID, []byte) []byte { return reply })
	req := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := a.Call(srv.Self(), "kad:find_node", req)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(resp)
	}
}

package nettransport

import (
	"bytes"
	"errors"
	"testing"
)

func frameEqual(a, b *Frame) bool {
	return a.Kind == b.Kind && a.Type == b.Type && a.From == b.From &&
		a.To == b.To && a.ReqID == b.ReqID && a.RespBytes == b.RespBytes &&
		bytes.Equal(a.Payload, b.Payload)
}

func TestWireRoundTrip(t *testing.T) {
	cases := []Frame{
		{Kind: KindData, Type: "gnu:hit", From: 0, To: 1},
		{Kind: KindReq, Type: "fd_ping", From: 3, To: 7, ReqID: 42, RespBytes: 64},
		{Kind: KindResp, Type: "fd_ack", From: 7, To: 3, ReqID: 42, Payload: make([]byte, 64)},
		{Kind: KindReq, Type: "kad:find_node", From: 1, To: 2, ReqID: 1, Payload: []byte("key")},
		{Kind: KindReq, Type: "hello", From: 9, To: -1, ReqID: 2, Payload: []byte{0, 1, 2, 255}},
		// Largest allowed payload.
		{Kind: KindData, Type: "gnu:query", From: 0, To: 0, Payload: bytes.Repeat([]byte{0xAB}, MaxPayload)},
	}
	for _, f := range cases {
		buf, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatalf("encode %v %s: %v", f.Kind, f.Type, err)
		}
		got, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode %v %s: %v", f.Kind, f.Type, err)
		}
		if !frameEqual(&f, &got) {
			t.Fatalf("round trip mismatch:\n in %+v\nout %+v", f, got)
		}
	}
}

// TestWireKnownTypesUseOneByte: every table type travels as its
// one-byte id, and nothing else travels: a type outside the table, or a
// request of a type that has no reply, is refused.
func TestWireKnownTypesUseOneByte(t *testing.T) {
	for _, mt := range msgTable {
		k := KindData
		if mt.reply != noReply {
			k = KindReq
		}
		b, err := AppendFrame(nil, &Frame{Kind: k, Type: mt.name})
		if err != nil || len(b) != headerLen {
			t.Fatalf("%s encoded to %d bytes (%v), want headerLen=%d", mt.name, len(b), err, headerLen)
		}
	}
	for _, f := range []Frame{
		{Kind: KindData, Type: "kad_find_node_x"},
		{Kind: KindData, Type: "probe"},
		{Kind: KindReq, Type: "gnu:query"},
		{Kind: KindReq, Type: "kad:nodes"},
	} {
		if b, err := AppendFrame(nil, &f); !errors.Is(err, ErrBadType) || len(b) != 0 {
			t.Errorf("%v %s: encoded %d bytes, err %v; want ErrBadType", f.Kind, f.Type, len(b), err)
		}
	}
}

func TestWireDecodeErrors(t *testing.T) {
	good, _ := AppendFrame(nil, &Frame{Kind: KindReq, Type: "fd_ping", ReqID: 1, Payload: []byte("xy")})
	gnuHit := byte(msgIDs["gnu:hit"])
	cases := []struct {
		name string
		b    []byte
		err  error
	}{
		{"empty", nil, ErrTruncated},
		{"short", []byte{magic0, magic1}, ErrTruncated},
		{"magic", append([]byte("XX"), good[2:]...), ErrBadMagic},
		{"version", append([]byte{magic0, magic1, 99}, good[3:]...), ErrBadVersion},
		{"type id", append(append([]byte{}, good[:4]...), 200), ErrBadType},
		{"inline type", append(append([]byte{}, good[:4]...), 0xFF, 3, 'a', 'b', 'c'), ErrBadType},
		{"request without reply", append(append([]byte{}, good[:4]...), append([]byte{gnuHit}, good[5:]...)...), ErrBadType},
		{"truncated payload", good[:len(good)-1], ErrTruncated},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.b); !errors.Is(err, tc.err) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.err)
		}
	}
	// Oversized payloads are refused at both ends.
	big := Frame{Kind: KindData, Type: "gnu:query", Payload: make([]byte, MaxPayload+1)}
	if _, err := AppendFrame(nil, &big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("encode oversized: got %v, want ErrTooLarge", err)
	}
	// Unknown frame kind.
	bad := append([]byte{}, good...)
	bad[3] = 7
	if _, err := DecodeFrame(bad); err == nil {
		t.Error("decode accepted unknown frame kind")
	}
}

func TestWirePayloadIsCopied(t *testing.T) {
	f := Frame{Kind: KindData, Type: "gnu:query", Payload: []byte("hold")}
	buf, _ := AppendFrame(nil, &f)
	got, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0
	}
	if string(got.Payload) != "hold" {
		t.Fatalf("decoded payload aliases the read buffer: %q", got.Payload)
	}
}

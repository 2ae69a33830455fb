// Package nettransport is the live plane's UDP RPC transport: a
// stdlib-only request/response and one-way datagram layer that carries
// exactly the live protocol — the join handshake, the failure
// detector's pings, and the three overlay engines' RPCs — between
// unapnode processes on localhost or a LAN. The sim backend
// (internal/transport) stays the reference for experiments; this
// backend trades its purity for wall-clock reality: real sockets, real
// timeouts, real RTTs feeding the same metrics planes.
//
// Network input is treated as hostile. Every message type is a row of
// one closed table (wire.go), so a datagram can only touch counters
// that table names; an unknown type id is a malformed frame. Addresses
// are learned only from address-book payloads (hello merges and
// Kademlia reply mini-books), never from a datagram's source, and a
// request is answered at the address it came from.
//
// The package splits into four pieces:
//
//	wire.go  — the closed message table and the binary frame codec
//	book.go  — the peer address book (underlay.HostID → netip.AddrPort)
//	net.go   — Net, the payload RPC layer and the failure detector's
//	  round trips
//	realtime.go — Pacer, a wall-clock driver for a sim.Kernel, so
//	  sim-time components (the resilience failure detector) run
//	  unmodified against wall time
package nettransport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"unap2p/internal/underlay"
)

// Kind classifies a frame on the wire.
type Kind uint8

const (
	// KindData is a one-way message (Net.SendPayload).
	KindData Kind = iota
	// KindReq opens a round trip; the receiver must answer with a
	// KindResp frame echoing the request id.
	KindReq
	// KindResp closes a round trip.
	KindResp
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindReq:
		return "req"
	case KindResp:
		return "resp"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Frame is one decoded wire message. Every UDP datagram carries exactly
// one frame; the explicit payload length prefix makes the codec
// transport-agnostic (the same bytes would frame correctly over a TCP
// stream) and doubles as a truncation check on datagrams.
type Frame struct {
	Kind Kind
	// Type is the message type, a name from the closed message table
	// (msgTable); it travels as the row's one-byte id.
	Type string
	// From and To are cluster-wide host ids from the address book.
	From, To underlay.HostID
	// ReqID correlates a KindResp with its KindReq. 0 for KindData.
	ReqID uint64
	// RespBytes is the auto-reply payload size a KindReq asks for,
	// honoured by the receiver when no handler is registered for Type
	// (the failure detector's fd_ping relies on it).
	RespBytes uint32
	// Payload carries the application bytes (or size padding for the
	// detector's byte-accounted pings).
	Payload []byte
}

const (
	magic0, magic1 = 'u', 'N'
	// wireVersion 2 is the closed message table: version 1 also carried
	// types outside its table inline, and numbered its rows differently.
	wireVersion = 2

	// MaxPayload bounds a frame's payload so an encoded frame always fits
	// a single UDP datagram with headroom for the header.
	MaxPayload = 60000

	// headerLen is the fixed part of the encoding: magic(2) version(1)
	// kind(1) typeid(1) from(4) to(4) reqid(8) respbytes(4) paylen(4).
	headerLen = 2 + 1 + 1 + 1 + 4 + 4 + 8 + 4 + 4
)

// msgType is one row of the closed message table.
type msgType struct {
	id   int // wire id: the row's index in msgTable
	name string
	// reply is the table id of the type that answers this one as a
	// request, or noReply for a type that is never a request.
	reply int
	// tx, txBytes, rx and rxBytes are the row's counter names ("<t>",
	// "<t>_bytes", "<t>_rx", "<t>_rx_bytes"), built once so no packet
	// assembles a name.
	tx, txBytes, rx, rxBytes string
}

const noReply = -1

// msgTable is the live protocol: every message type the live plane
// carries, at its wire id (the row index), with the type that answers
// it. A hello request is answered by a hello carrying the responder's
// book; fd_ping is answered by the receiver itself (an auto-reply of the
// requested size), the overlay RPCs by their engines' handlers. No other
// type travels: a frame naming an id outside the table is malformed.
// msgIDs maps each type name to its id.
var msgTable, msgIDs = newMsgTable([][2]string{
	{"fd_ping", "fd_ack"},
	{"fd_ack", ""},
	{"hello", "hello"},
	{"kad:find_node", "kad:nodes"},
	{"kad:nodes", ""},
	{"chord:find_succ", "chord:succ"},
	{"chord:succ", ""},
	{"gnu:query", ""},
	{"gnu:hit", ""},
})

// newMsgTable builds the table from (type, reply type) rows; an empty
// reply marks a type that is never a request.
func newMsgTable(rows [][2]string) ([]msgType, map[string]int) {
	ids := make(map[string]int, len(rows))
	for i, r := range rows {
		ids[r[0]] = i
	}
	table := make([]msgType, len(rows))
	for i, r := range rows {
		reply := noReply
		if r[1] != "" {
			reply = ids[r[1]]
		}
		table[i] = msgType{id: i, name: r[0], reply: reply,
			tx: r[0], txBytes: r[0] + "_bytes", rx: r[0] + "_rx", rxBytes: r[0] + "_rx_bytes"}
	}
	return table, ids
}

// rowFor returns the table row a frame of the given kind may carry at
// id: ErrBadType for an id outside the table, or for a request of a type
// nothing answers.
func rowFor(k Kind, id int) (*msgType, error) {
	if id < 0 || id >= len(msgTable) {
		return nil, ErrBadType
	}
	t := &msgTable[id]
	if k == KindReq && t.reply == noReply {
		return nil, fmt.Errorf("%w: %s is not a request", ErrBadType, t.name)
	}
	return t, nil
}

// row is rowFor by type name.
func row(k Kind, name string) (*msgType, error) {
	id, ok := msgIDs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %.40q", ErrBadType, name)
	}
	return rowFor(k, id)
}

// Errors the decoder distinguishes. All malformed input returns an
// error — Decode never panics, which FuzzWireCodec pins.
var (
	ErrBadMagic   = errors.New("nettransport: bad frame magic")
	ErrBadVersion = errors.New("nettransport: unsupported wire version")
	ErrTruncated  = errors.New("nettransport: truncated frame")
	ErrBadType    = errors.New("nettransport: message type outside the table")
	ErrTooLarge   = errors.New("nettransport: payload exceeds MaxPayload")
)

// AppendFrame encodes f onto buf and returns the extended slice. The
// frame layout is fixed-width fields followed by the length-prefixed
// payload; integers are big-endian. A type outside the message table
// is refused with ErrBadType.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return buf, ErrTooLarge
	}
	t, err := row(f.Kind, f.Type)
	if err != nil {
		return buf, err
	}
	buf = append(buf, magic0, magic1, wireVersion, byte(f.Kind), byte(t.id))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(f.From)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(f.To)))
	buf = binary.BigEndian.AppendUint64(buf, f.ReqID)
	buf = binary.BigEndian.AppendUint32(buf, f.RespBytes)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	buf = append(buf, f.Payload...)
	return buf, nil
}

// DecodeFrame parses one frame from b. The returned frame's Payload is a
// fresh copy, so callers may retain it after the read buffer is reused.
// Arbitrary input never panics: every length is checked before use.
func DecodeFrame(b []byte) (Frame, error) {
	var f Frame
	_, err := decodeFrame(b, &f)
	return f, err
}

// decodeFrame is DecodeFrame into f, also returning the type's table row.
func decodeFrame(b []byte, f *Frame) (*msgType, error) {
	if len(b) < 5 {
		return nil, ErrTruncated
	}
	if b[0] != magic0 || b[1] != magic1 {
		return nil, ErrBadMagic
	}
	if b[2] != wireVersion {
		return nil, ErrBadVersion
	}
	f.Kind = Kind(b[3])
	if f.Kind > KindResp {
		return nil, fmt.Errorf("nettransport: unknown frame kind %d", b[3])
	}
	t, err := rowFor(f.Kind, int(b[4]))
	if err != nil {
		return nil, err
	}
	f.Type = t.name
	if len(b) < headerLen {
		return nil, ErrTruncated
	}
	f.From = underlay.HostID(int32(binary.BigEndian.Uint32(b[5:9])))
	f.To = underlay.HostID(int32(binary.BigEndian.Uint32(b[9:13])))
	f.ReqID = binary.BigEndian.Uint64(b[13:21])
	f.RespBytes = binary.BigEndian.Uint32(b[21:25])
	payLen := binary.BigEndian.Uint32(b[25:29])
	rest := b[headerLen:]
	if payLen > MaxPayload {
		return nil, ErrTooLarge
	}
	if uint32(len(rest)) < payLen {
		return nil, ErrTruncated
	}
	if payLen > 0 {
		f.Payload = append([]byte(nil), rest[:payLen]...)
	}
	return t, nil
}

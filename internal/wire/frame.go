package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/transport"
)

// Frame payload discriminators: the first byte of every frame says whether
// it carries a request or a reply envelope.
const (
	frameRequest byte = 1
	frameReply   byte = 2
)

// ReplyStatus classifies a reply envelope.
type ReplyStatus byte

const (
	// ReplyOK: the handler ran; the envelope carries its typed reply body.
	ReplyOK ReplyStatus = 0
	// ReplyAppError: the handler ran and returned an application error;
	// the envelope carries its text. Application errors are not retried —
	// the request WAS delivered.
	ReplyAppError ReplyStatus = 1
	// ReplyUnreachable: no endpoint is bound at the destination address on
	// the receiving fabric. The sender surfaces transport.ErrUnreachable.
	ReplyUnreachable ReplyStatus = 2
	// ReplyBadRequest: the receiver could not decode or dispatch the
	// request (unknown kind, codec mismatch). Not retried.
	ReplyBadRequest ReplyStatus = 3
)

// Request is the decoded form of a request envelope: the transport request
// plus the connection-multiplexing ID that pairs it with its reply frame.
// Mux is per-attempt (a retry of the same logical call gets a fresh Mux but
// reuses Req.ID, which is what receiver-side dedup keys on).
//
// The slices of a decoded body (a group arrive's Wires and Visits) point
// into memory the Request owns, which the next decode into the same Request
// reuses: they are valid until then, and a pooled Request must not go back
// to its pool while anything still reads them.
type Request struct {
	Mux uint64
	Req transport.Request
	mem decodeMem
}

// Reply is the decoded form of a reply envelope.
type Reply struct {
	Mux     uint64
	Status  ReplyStatus
	Body    any    // set when Status == ReplyOK
	ErrText string // set otherwise
}

// EncodeRequest appends a request envelope for req to e. The body is
// encoded by req.Kind's registered codec; an unregistered kind or a body
// of the wrong type is an encode error (nothing is appended reliably after
// an error — reset the encoder).
func EncodeRequest(e *Encoder, mux uint64, req transport.Request) error {
	c, ok := ByKind(req.Kind)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownKind, req.Kind)
	}
	e.Byte(frameRequest)
	e.Uvarint(mux)
	e.Uvarint(req.ID)
	e.String(string(req.From))
	e.String(string(req.To))
	// Trace context travels with every request so server-side spans stitch
	// to the caller's trace across real sockets. Unsampled requests carry
	// the zero context: two zero bytes.
	e.Uvarint(req.Trace.TraceID)
	e.Uvarint(req.Trace.SpanID)
	e.Byte(c.Code)
	return c.EncodeReq(e, req.Body)
}

// EncodeReply appends a reply envelope to e. kindCode selects the reply
// body codec for ReplyOK; for error statuses the body is ignored and
// errText is carried instead.
func EncodeReply(e *Encoder, mux uint64, kindCode byte, status ReplyStatus, body any, errText string) error {
	e.Byte(frameReply)
	e.Uvarint(mux)
	e.Byte(byte(status))
	if status != ReplyOK {
		if len(errText) > MaxString {
			errText = errText[:MaxString]
		}
		e.String(errText)
		return nil
	}
	c, ok := ByCode(kindCode)
	if !ok {
		return fmt.Errorf("%w: code %d", ErrUnknownKind, kindCode)
	}
	e.Byte(kindCode)
	return c.EncodeRes(e, body)
}

// IsReply reports whether a frame payload carries a reply envelope. It
// inspects only the tag byte; a true result does not promise the rest of
// the payload decodes. A reader decodes what it says is a reply with
// DecodeReplyFrame and anything else with DecodeRequestFrame.
func IsReply(payload []byte) bool {
	return len(payload) > 0 && payload[0] == frameReply
}

// decoders pools Decoder values for the frame-decode entry points: the
// decoder escapes through the per-kind codec's indirect call, so a fresh
// one per frame would cost an allocation on an otherwise allocation-free
// path. A pooled decoder keeps no reference to its last payload past Put
// (Reset on the next Get re-aims it).
var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// DecodeRequestFrame decodes a request frame payload into r, overwriting
// every field, so callers can pool Request values. The payload must carry a
// request envelope and must be fully consumed: trailing bytes are corrupt.
func DecodeRequestFrame(payload []byte, r *Request) error {
	d := decoders.Get().(*Decoder)
	d.Reset(payload)
	r.mem.reset()
	d.mem = &r.mem
	err := decodeRequestFrame(d, r)
	d.Reset(nil)
	decoders.Put(d)
	return err
}

func decodeRequestFrame(d *Decoder, r *Request) error {
	tag, err := d.Byte()
	if err != nil {
		return err
	}
	if tag != frameRequest {
		return fmt.Errorf("%w: frame tag %d is not a request", ErrCorrupt, tag)
	}
	if err := decodeRequestInto(d, r); err != nil {
		return err
	}
	return d.Finish()
}

// DecodeReplyFrame decodes a reply frame payload into r, overwriting
// every field, so callers can pool Reply values. The payload must carry a
// reply envelope and must be fully consumed: trailing bytes are corrupt.
func DecodeReplyFrame(payload []byte, r *Reply) error {
	d := decoders.Get().(*Decoder)
	d.Reset(payload)
	err := decodeReplyFrame(d, r)
	d.Reset(nil)
	decoders.Put(d)
	return err
}

func decodeReplyFrame(d *Decoder, r *Reply) error {
	tag, err := d.Byte()
	if err != nil {
		return err
	}
	if tag != frameReply {
		return fmt.Errorf("%w: frame tag %d is not a reply", ErrCorrupt, tag)
	}
	if err := decodeReplyInto(d, r); err != nil {
		return err
	}
	return d.Finish()
}

// decodeRequestInto fills r from d. Every field of r is assigned, so a
// reused (pooled) Request cannot leak state from its previous decode.
func decodeRequestInto(d *Decoder, r *Request) error {
	var err error
	if r.Mux, err = d.Uvarint(); err != nil {
		return err
	}
	if r.Req.ID, err = d.Uvarint(); err != nil {
		return err
	}
	// Addresses repeat on every frame between a pair of endpoints, so
	// they decode through the intern table instead of allocating a fresh
	// copy per request.
	var from, to string
	if from, err = d.InternedString(); err != nil {
		return err
	}
	if to, err = d.InternedString(); err != nil {
		return err
	}
	r.Req.From, r.Req.To = transport.Addr(from), transport.Addr(to)
	if r.Req.Trace.TraceID, err = d.Uvarint(); err != nil {
		return err
	}
	if r.Req.Trace.SpanID, err = d.Uvarint(); err != nil {
		return err
	}
	code, err := d.Byte()
	if err != nil {
		return err
	}
	c, ok := ByCode(code)
	if !ok {
		return fmt.Errorf("%w: code %d", ErrUnknownKind, code)
	}
	r.Req.Kind = c.Kind
	if r.Req.Body, err = c.DecodeReq(d); err != nil {
		return err
	}
	return nil
}

// decodeReplyInto fills r from d. Body and ErrText are cleared up front:
// only one of them is assigned per status, and a reused (pooled) Reply
// must not leak the other from its previous decode.
func decodeReplyInto(d *Decoder, r *Reply) error {
	r.Body, r.ErrText = nil, ""
	var err error
	if r.Mux, err = d.Uvarint(); err != nil {
		return err
	}
	st, err := d.Byte()
	if err != nil {
		return err
	}
	r.Status = ReplyStatus(st)
	switch r.Status {
	case ReplyOK:
		code, err := d.Byte()
		if err != nil {
			return err
		}
		c, ok := ByCode(code)
		if !ok {
			return fmt.Errorf("%w: code %d", ErrUnknownKind, code)
		}
		if r.Body, err = c.DecodeRes(d); err != nil {
			return err
		}
	case ReplyAppError, ReplyUnreachable, ReplyBadRequest:
		if r.ErrText, err = d.String(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: reply status %d", ErrCorrupt, st)
	}
	return nil
}

// FrameOverhead is the number of bytes FinishFrame needs reserved ahead
// of the payload: the widest length prefix a MaxFrame payload can take
// (uvarint(1<<20) is 3 bytes; MaxVarintLen32 leaves slack for a larger
// MaxFrame without a wire change).
const FrameOverhead = binary.MaxVarintLen32

// FinishFrame frames a payload in place: buf must be FrameOverhead
// reserved bytes (Encoder.Pad) followed by the payload. The length prefix —
// the payload's length as a uvarint — is written into the tail of the
// reserve and the framed message, a sub-slice of buf (no copy, no
// allocation), is returned. Payloads above MaxFrame are refused.
func FinishFrame(buf []byte) ([]byte, error) {
	if len(buf) < FrameOverhead {
		return nil, fmt.Errorf("%w: %d bytes is under the %d-byte frame reserve", ErrTruncated, len(buf), FrameOverhead)
	}
	payload := len(buf) - FrameOverhead
	if payload > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, payload)
	}
	var hdr [FrameOverhead]byte
	n := binary.PutUvarint(hdr[:], uint64(payload))
	start := FrameOverhead - n
	copy(buf[start:], hdr[:n])
	return buf[start:], nil
}

// ReadFrame reads one length-prefixed frame from br, reusing buf when it
// is large enough, and returns the payload. io errors pass through
// unwrapped (io.EOF at a frame boundary means a clean close); a length
// prefix above MaxFrame is ErrTooLarge.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

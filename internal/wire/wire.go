// Package wire is the serialization boundary of the system: a
// self-contained binary codec for every message that crosses a
// transport.Transport. Until this package existed, request and reply
// payloads traveled as Go values (transport.Request.Body is `any`), which
// pins the whole reproduction inside one process; the codec is what lets
// the same RPCs travel over a real socket (internal/transport/tcpnet)
// without changing a line of protocol logic.
//
// Format, smallest pieces first:
//
//   - Integers are unsigned varints (the uvarint of encoding/binary);
//     signed ints zigzag first, so small negatives stay small.
//   - Strings and byte slices are length-prefixed (uvarint count, then the
//     bytes); integer slices are a uvarint count followed by that many
//     varints.
//   - A frame is a uvarint payload length followed by the payload. Frames
//     are the unit of interleaving on a multiplexed connection.
//   - A message is a kind code (one byte, from the registry below) plus
//     its kind-specific payload. Request and reply envelopes add the
//     multiplexing ID, the at-most-once call ID and the endpoint
//     addresses; see EncodeRequest/EncodeReply.
//
// Decoding is total: any byte string either decodes or returns a typed
// error (ErrTruncated for a short buffer, ErrCorrupt for an impossible
// value, ErrUnknownKind for an unregistered code). Decoders never panic
// and never allocate unboundedly — all counts are checked against the
// Max* limits before allocation, so a corrupt or hostile length prefix
// cannot balloon memory. The fuzzers in this package's tests hold both
// properties over the whole registry.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Errors returned by decoders. Decode failures wrap one of these, so
// callers can errors.Is on the class while the message carries specifics.
var (
	// ErrTruncated means the buffer ended before the value it promised.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrCorrupt means a value that cannot be produced by any encoder
	// (overlong varint, length prefix beyond its limit, impossible enum).
	ErrCorrupt = errors.New("wire: corrupt message")
	// ErrUnknownKind means a message kind code or string missing from the
	// registry.
	ErrUnknownKind = errors.New("wire: unknown message kind")
	// ErrTooLarge means an encoded frame exceeds MaxFrame, or a message
	// holds a slice longer than a decoder takes.
	ErrTooLarge = errors.New("wire: frame exceeds size limit")
)

// Size limits enforced by decoders before any allocation.
const (
	// MaxFrame bounds one framed message (the group arrive message grows
	// with batch size; 1 MiB accommodates batches far past any the system
	// issues).
	MaxFrame = 1 << 20
	// MaxString bounds one encoded string (addresses and error text).
	MaxString = 1 << 12
	// MaxSlice bounds one encoded slice's element count.
	MaxSlice = 1 << 16
	// MaxBlob bounds one control-plane blob (KindCtl payloads). Blobs
	// carry JSON documents — worker reports, span pages — so the bound
	// is most of a frame rather than MaxString's address-sized budget.
	MaxBlob = MaxFrame - 1<<12
)

// Encoder appends values to a byte buffer. The zero value is ready; Bytes
// returns the accumulated encoding. Encoders are reusable via Reset and
// are not safe for concurrent use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Reset discards the accumulated encoding but keeps the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the accumulated encoding. The slice aliases the encoder's
// buffer: it is valid until the next Reset or append.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Pad appends n zero bytes. Callers that frame in place (FinishFrame)
// reserve the FrameOverhead header region up front with it.
func (e *Encoder) Pad(n int) {
	for i := 0; i < n; i++ {
		e.buf = append(e.buf, 0)
	}
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a zigzag-encoded signed varint.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendUvarint(e.buf, zigzag(v))
}

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// BlobBytes appends a length-prefixed byte string bounded by MaxBlob.
// The bound is enforced here (encoders otherwise trust their callers)
// because blob payloads are application-assembled documents whose size
// the protocol layer does not control; an oversized blob must fail at
// the sender with a clear error, not poison the connection when the
// receiver rejects the frame.
func (e *Encoder) BlobBytes(b []byte) error {
	if len(b) > MaxBlob {
		return fmt.Errorf("%w: blob of %d bytes > %d", ErrTooLarge, len(b), MaxBlob)
	}
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
	return nil
}

// checkSlices returns ErrTooLarge when one of a kind's slices, given by
// length, is longer than MaxSlice, which every decoder refuses. Message
// encoders call it before writing anything, so a mis-sized message fails
// at its sender, typed, instead of costing the receiver its connection.
func checkSlices(kind string, lens ...int) error {
	for _, n := range lens {
		if n > MaxSlice {
			return fmt.Errorf("%w: %s: slice of %d > %d", ErrTooLarge, kind, n, MaxSlice)
		}
	}
	return nil
}

// Uint64s appends a length-prefixed slice of unsigned varints.
func (e *Encoder) Uint64s(vs []uint64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Uvarint(v)
	}
}

// Ints appends a length-prefixed slice of signed varints.
func (e *Encoder) Ints(vs []int) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Varint(int64(v))
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Decoder consumes values from a byte buffer. All methods return a typed
// error on malformed input and leave the decoder positioned at the failure
// point; a Decoder never panics on any input.
type Decoder struct {
	buf []byte
	off int
	mem *decodeMem // where slices decode to; nil: fresh allocations
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset re-aims the decoder at buf, dropping all previous state — the
// reuse hook for pooled decoders on allocation-free paths.
func (d *Decoder) Reset(buf []byte) {
	d.buf = buf
	d.off = 0
	d.mem = nil
}

// decodeMem is the memory a Request's body slices decode into, kept with
// the Request and reused by the next decode into it: a group arrive's Wires
// and Visits cost no allocation once a pooled Request has seen a group as
// large. Slices are handed out one after another from a block, so those of
// one decode never overlap; a block too small is replaced, not grown, so
// the slices already handed out keep theirs.
type decodeMem struct {
	intBlk   []int
	visitBlk []Visit
}

// memKeep bounds the elements of each block a Request keeps between
// decodes: a rare huge group does not stay pinned in the request pool.
const memKeep = 1 << 12

// reset starts a decode: every block is free again.
func (m *decodeMem) reset() {
	m.intBlk = keep(m.intBlk)
	m.visitBlk = keep(m.visitBlk)
}

func keep[T any](blk []T) []T {
	if cap(blk) > memKeep {
		return nil
	}
	return blk[:0]
}

// take returns the next n elements of *blk, replacing it with a block of at
// least n and twice its old capacity when too few are left.
func take[T any](blk *[]T, n int) []T {
	b := *blk
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(n, 2*cap(b)))
	}
	lo := len(b)
	*blk = b[:lo+n]
	return b[lo : lo+n : lo+n]
}

// ints returns n ints to decode into: from m when set, fresh otherwise.
func (m *decodeMem) ints(n int) []int {
	if m == nil {
		return make([]int, n)
	}
	return take(&m.intBlk, n)
}

// visits is ints for a group's visit list.
func (m *decodeMem) visits(n int) []Visit {
	if m == nil {
		return make([]Visit, n)
	}
	return take(&m.visitBlk, n)
}

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Byte consumes one raw byte.
func (d *Decoder) Byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("%w: need 1 byte at offset %d", ErrTruncated, d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// Uvarint consumes an unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n > 0 {
		d.off += n
		return v, nil
	}
	if n == 0 {
		return 0, fmt.Errorf("%w: varint at offset %d", ErrTruncated, d.off)
	}
	return 0, fmt.Errorf("%w: overlong varint at offset %d", ErrCorrupt, d.off)
}

// Varint consumes a zigzag-encoded signed varint.
func (d *Decoder) Varint() (int64, error) {
	u, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

// Int consumes a signed varint and range-checks it against the platform
// int.
func (d *Decoder) Int() (int, error) {
	v, err := d.Varint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt || v < math.MinInt {
		return 0, fmt.Errorf("%w: int %d out of range", ErrCorrupt, v)
	}
	return int(v), nil
}

// Bool consumes one byte and requires it to be 0 or 1.
func (d *Decoder) Bool() (bool, error) {
	b, err := d.Byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("%w: bool byte %d", ErrCorrupt, b)
	}
	return b == 1, nil
}

// String consumes a length-prefixed string bounded by MaxString.
func (d *Decoder) String() (string, error) {
	n, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if n > MaxString {
		return "", fmt.Errorf("%w: string length %d > %d", ErrCorrupt, n, MaxString)
	}
	if uint64(d.Remaining()) < n {
		return "", fmt.Errorf("%w: string needs %d bytes, %d left", ErrTruncated, n, d.Remaining())
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// internLimit bounds the wire's string intern table. Endpoint addresses
// form a small closed set in any deployment, but the decoder cannot trust
// its peer to keep it small, so past the bound new strings fall back to
// plain allocation instead of growing the table without limit.
const internLimit = 4096

var (
	internMu  sync.RWMutex
	internTab = make(map[string]string, 64)
)

// interned returns the canonical copy of b from the process-wide intern
// table, allocating (and remembering) it on first sight. The steady-state
// path is one shared-lock map probe with no conversion copy: Go map
// lookups keyed by string(b) do not allocate.
func interned(b []byte) string {
	internMu.RLock()
	s, ok := internTab[string(b)]
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if c, ok := internTab[s]; ok {
		s = c
	} else if len(internTab) < internLimit {
		internTab[s] = s
	}
	internMu.Unlock()
	return s
}

// InternedString is String for fields drawn from a small closed set —
// endpoint addresses on the request envelope — where every decoded frame
// repeats values seen thousands of times before. It returns the interned
// copy so the steady-state request decode path does not allocate per
// frame.
func (d *Decoder) InternedString() (string, error) {
	n, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if n > MaxString {
		return "", fmt.Errorf("%w: string length %d > %d", ErrCorrupt, n, MaxString)
	}
	if uint64(d.Remaining()) < n {
		return "", fmt.Errorf("%w: string needs %d bytes, %d left", ErrTruncated, n, d.Remaining())
	}
	s := interned(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// BlobBytes consumes a length-prefixed byte string bounded by MaxBlob.
func (d *Decoder) BlobBytes() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > MaxBlob {
		return nil, fmt.Errorf("%w: blob length %d > %d", ErrCorrupt, n, MaxBlob)
	}
	if uint64(d.Remaining()) < n {
		return nil, fmt.Errorf("%w: blob needs %d bytes, %d left", ErrTruncated, n, d.Remaining())
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+int(n)])
	d.off += int(n)
	return b, nil
}

// Uint64s consumes a length-prefixed slice of unsigned varints bounded by
// MaxSlice.
func (d *Decoder) Uint64s() ([]uint64, error) {
	n, err := d.sliceLen()
	if err != nil || n == 0 {
		return nil, err
	}
	vs := make([]uint64, n)
	for i := range vs {
		if vs[i], err = d.Uvarint(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// Ints consumes a length-prefixed slice of signed varints bounded by
// MaxSlice. A run of one-byte values — every wire and output wire below 64
// — is read straight off the buffer, with no call per value; a longer
// varint goes through Int. The slice is fresh, or taken from the decode
// memory of the Request being decoded (DecodeRequestFrame).
func (d *Decoder) Ints() ([]int, error) {
	n, err := d.sliceLen()
	if err != nil || n == 0 {
		return nil, err
	}
	vs := d.mem.ints(n)
	for i := 0; i < n; {
		// sliceLen saw at least one byte per value, but a multi-byte value
		// spends more than its share, so the run is bounded by both.
		run := d.buf[d.off:]
		if len(run) > n-i {
			run = run[:n-i]
		}
		k := 0
		for ; k < len(run) && run[k] < 0x80; k++ {
			b := int(run[k])
			vs[i+k] = b>>1 ^ -(b & 1) // unzigzag of a one-byte varint
		}
		i, d.off = i+k, d.off+k
		if i == n {
			break
		}
		if vs[i], err = d.Int(); err != nil {
			return nil, err
		}
		i++
	}
	return vs, nil
}

// sliceLen consumes a slice count, bounds it by MaxSlice, and rejects
// counts the remaining bytes cannot possibly satisfy (each element costs
// at least one byte), so corrupt prefixes fail before allocating.
func (d *Decoder) sliceLen() (int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > MaxSlice {
		return 0, fmt.Errorf("%w: slice length %d > %d", ErrCorrupt, n, MaxSlice)
	}
	if uint64(d.Remaining()) < n {
		return 0, fmt.Errorf("%w: slice of %d needs %d bytes, %d left", ErrTruncated, n, n, d.Remaining())
	}
	return int(n), nil
}

// Finish requires the decoder to have consumed the whole buffer: trailing
// garbage after a well-formed message is corruption, not padding.
func (d *Decoder) Finish() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

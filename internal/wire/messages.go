package wire

import "fmt"

// Message kind strings. These are the transport.Request.Kind values the
// protocol layers use; the registry maps each to a one-byte code and its
// typed body/reply codecs. dist and chord reference these constants so the
// string and the codec can never drift apart.
const (
	// KindArrive delivers one token to a component input wire.
	// Body: Arrive. Reply: ArriveRes.
	KindArrive = "arrive"
	// KindGroupArrive delivers a whole token group in one message: k tokens,
	// each with its own input wire, to the addressed component and any
	// further ones the body lists. This is the batched dist wire format:
	// one RPC per round and destination fabric instead of one per token.
	// Body: GroupArrive. Reply: GroupArriveRes.
	KindGroupArrive = "agroup"
	// KindFreeze tells a component to stop routing and snapshot state.
	// Body: none. Reply: FreezeRes.
	KindFreeze = "freeze"
	// KindTotal polls a component's processed-token total.
	// Body: none. Reply: uint64.
	KindTotal = "total"
	// KindCPF is Chord's closest-preceding-finger query.
	// Body: uint64 (key). Reply: uint64 (node ID).
	KindCPF = "cpf"
	// KindProbe is Chord's successor liveness probe.
	// Body: uint64 (probed ID). Reply: uint64 (responder ID).
	KindProbe = "probe"
	// KindCtl is the launch control plane: coordinator→worker commands
	// (wire routes, run workload, report, shutdown) carried as opaque
	// JSON. The payload is a Blob both ways so the control protocol can
	// evolve without new wire codes; it is never on the token hot path.
	// Body: Blob. Reply: Blob.
	KindCtl = "ctl"
)

// Status is the outcome of an arrive (or group arrive) RPC.
type Status uint8

const (
	// StatusProcessed: the addressed component routed the token(s); the
	// reply carries that component's output wires, which the sender maps
	// onward with its own routing table.
	StatusProcessed Status = 1
	// Status 2 (tokens stored at a frozen component) is retired; decoders
	// refuse it.
	//
	// StatusDead: the component incarnation is not active — frozen for a
	// reconfiguration, or retired by one; nothing was stepped or kept. The
	// sender re-resolves against a snapshot newer than the one it routed by.
	StatusDead Status = 3
	// StatusExited (group arrive only): the chained reply form, in which the
	// receiver stepped the tokens on through further components it serves
	// and every token either left the network or is forwarded (see
	// GroupArriveRes).
	StatusExited Status = 4
)

// decodeStatus consumes a status byte in [StatusProcessed, max], the
// retired status 2 excepted.
func decodeStatus(d *Decoder, max Status) (Status, error) {
	b, err := d.Byte()
	if err != nil {
		return 0, err
	}
	s := Status(b)
	if s < StatusProcessed || s > max || s == 2 {
		return 0, fmt.Errorf("%w: arrive status %d", ErrCorrupt, b)
	}
	return s, nil
}

// Arrive asks a component to accept one token on an input wire. Token and
// Seq are carried for the peers that still set them and mean nothing.
type Arrive struct {
	Wire  int
	Token string
	Seq   uint64
}

// ArriveRes is the reply to an Arrive: StatusProcessed with the output wire
// Out the addressed component sent the token to, or StatusDead with nothing
// stepped (and Out zero). dist injects every token through GroupArrive; the
// kind stays registered, and its frames decodable, for the peers and probes
// that still speak it.
type ArriveRes struct {
	Status Status
	Out    int
}

// GroupArrive asks a component to accept a whole token group: token i of
// the group arrives on Wires[i]. dist sends neither Token nor Seqs; they are
// carried for the peers that still set them and mean nothing. Seqs is empty
// or as long as Wires (a decode invariant).
//
// Visits hands the tail of the group to further incarnations the addressed
// one's fabric serves: the last run of tokens to the last visit, and so on
// back; the addressed component keeps at least one token (a decode
// invariant). The list is an optional tail on the wire: without it a
// message is byte for byte the single-component message it has always been.
type GroupArrive struct {
	Token  string
	Wires  []int
	Seqs   []uint64
	Visits []Visit
}

// Visit is one further visit of a GroupArrive: Tokens tokens for the
// component incarnation bound at Addr.
type Visit struct {
	Addr   string
	Tokens int
}

// GroupArriveRes is the reply to a GroupArrive. The addressed component
// serves the whole group under one state lock, so what happened there is
// uniform; the receiver may then have stepped the tokens on through
// further components it serves. Which fields carry meaning depends on
// Status (the rest are zero, on the wire and after decoding):
//
//   - StatusProcessed: exactly the addressed component was stepped; Outs[i]
//     is the output wire token i left it on.
//   - StatusExited: the chained form. Steps token-steps were performed in
//     all (a token stepped through three components counts three). Outs[i]
//     >= 0 is the network output wire token i left on. Outs[i] < 0 forwards
//     token i: it stands at a component the receiver could not step (served
//     elsewhere, or not active), the one at Paths[-1-Outs[i]], and the
//     sender must deliver it there. Paths lists each such component once,
//     however many tokens stand at it; Wires holds the input wires the
//     forwarded tokens stand at, one per forwarded token, in token order.
//   - StatusDead: nothing was stepped; re-resolve the whole group.
//
// When a message's visits fared differently the reply is in the chained
// form and adds Visits, an optional tail on the wire: the status a reply to
// each visit alone would have had, the addressed component's first, by
// which that visit's share of Outs is read as above (a dead visit's says
// nothing); Steps, Paths and Wires are the message's.
type GroupArriveRes struct {
	Status Status
	Outs   []int
	Steps  int
	Paths  []string
	Wires  []int
	Visits []Status
}

// FreezeRes snapshots a component's state at freeze time.
type FreezeRes struct {
	Total     uint64
	Processed []uint64
}

// Blob is an opaque byte payload for control-plane kinds. The bytes are
// whatever the application layer agreed on (launch uses JSON); the codec
// only length-prefixes them.
type Blob []byte

// Codec is one registered message kind: its wire code, its kind string,
// and typed encode/decode for the request body and the reply body. Encode
// functions reject bodies of the wrong dynamic type with an error rather
// than panicking, so a mis-wired caller fails loudly at the boundary.
type Codec struct {
	Code byte
	Kind string

	EncodeReq func(e *Encoder, body any) error
	DecodeReq func(d *Decoder) (any, error)
	EncodeRes func(e *Encoder, body any) error
	DecodeRes func(d *Decoder) (any, error)
}

func badBody(kind string, body any) error {
	return fmt.Errorf("wire: %s: body %T not encodable", kind, body)
}

// encNone / decNone serve the control kinds whose request carries no body.
func encNone(kind string) func(*Encoder, any) error {
	return func(_ *Encoder, body any) error {
		if body != nil {
			return badBody(kind, body)
		}
		return nil
	}
}

func decNone(_ *Decoder) (any, error) { return nil, nil }

// encUint64 / decUint64 serve kinds whose payload is a bare uint64
// (chord's node IDs, the total poll reply).
func encUint64(kind string) func(*Encoder, any) error {
	return func(e *Encoder, body any) error {
		v, ok := body.(uint64)
		if !ok {
			return badBody(kind, body)
		}
		e.Uvarint(v)
		return nil
	}
}

func decUint64(d *Decoder) (any, error) { return d.Uvarint() }

// registry holds every message kind, indexed by code and by kind string.
// Codes are wire format: they never change meaning, only grow. Codes 5 and
// 6 (kill, resume) are retired and never reused: decoders refuse them.
var (
	byCode [256]*Codec
	byKind = map[string]*Codec{}
)

func register(c *Codec) *Codec {
	if byCode[c.Code] != nil || byKind[c.Kind] != nil {
		panic(fmt.Sprintf("wire: duplicate registration for code %d kind %q", c.Code, c.Kind))
	}
	byCode[c.Code] = c
	byKind[c.Kind] = c
	return c
}

// ByKind returns the codec for a kind string.
func ByKind(kind string) (*Codec, bool) {
	c, ok := byKind[kind]
	return c, ok
}

// ByCode returns the codec for a wire code.
func ByCode(code byte) (*Codec, bool) {
	c := byCode[code]
	return c, c != nil
}

// Kinds returns every registered kind string, in wire-code order.
func Kinds() []string {
	var ks []string
	for _, c := range byCode {
		if c != nil {
			ks = append(ks, c.Kind)
		}
	}
	return ks
}

var _ = register(&Codec{
	Code: 1, Kind: KindArrive,
	EncodeReq: func(e *Encoder, body any) error {
		a, ok := body.(Arrive)
		if !ok {
			return badBody(KindArrive, body)
		}
		e.Int(a.Wire)
		e.String(a.Token)
		e.Uvarint(a.Seq)
		return nil
	},
	DecodeReq: func(d *Decoder) (any, error) {
		var a Arrive
		var err error
		if a.Wire, err = d.Int(); err != nil {
			return nil, err
		}
		if a.Token, err = d.String(); err != nil {
			return nil, err
		}
		if a.Seq, err = d.Uvarint(); err != nil {
			return nil, err
		}
		return a, nil
	},
	EncodeRes: func(e *Encoder, body any) error {
		r, ok := body.(ArriveRes)
		if !ok {
			return badBody(KindArrive, body)
		}
		e.Byte(byte(r.Status))
		e.Int(r.Out)
		return nil
	},
	DecodeRes: func(d *Decoder) (any, error) {
		var r ArriveRes
		var err error
		// The chained forms this reply once had (statuses 4 and 5) are
		// refused: no handler sends them any more.
		if r.Status, err = decodeStatus(d, StatusDead); err != nil {
			return nil, err
		}
		if r.Out, err = d.Int(); err != nil {
			return nil, err
		}
		return r, nil
	},
})

var _ = register(&Codec{
	Code: 2, Kind: KindGroupArrive,
	EncodeReq: func(e *Encoder, body any) error {
		g, ok := body.(GroupArrive)
		if !ok {
			return badBody(KindGroupArrive, body)
		}
		if len(g.Seqs) != 0 && len(g.Seqs) != len(g.Wires) {
			return fmt.Errorf("wire: %s: %d wires, %d seqs", KindGroupArrive, len(g.Wires), len(g.Seqs))
		}
		if err := checkSlices(KindGroupArrive, len(g.Wires), len(g.Visits)); err != nil {
			return err
		}
		e.String(g.Token)
		e.Ints(g.Wires)
		e.Uint64s(g.Seqs)
		if len(g.Visits) > 0 {
			e.Uvarint(uint64(len(g.Visits)))
			for _, v := range g.Visits {
				e.String(v.Addr)
				e.Int(v.Tokens)
			}
		}
		return nil
	},
	DecodeReq: func(d *Decoder) (any, error) {
		var g GroupArrive
		var err error
		if g.Token, err = d.String(); err != nil {
			return nil, err
		}
		if g.Wires, err = d.Ints(); err != nil {
			return nil, err
		}
		if g.Seqs, err = d.Uint64s(); err != nil {
			return nil, err
		}
		if len(g.Seqs) != 0 && len(g.Seqs) != len(g.Wires) {
			return nil, fmt.Errorf("%w: group with %d wires, %d seqs", ErrCorrupt, len(g.Wires), len(g.Seqs))
		}
		if d.Remaining() > 0 {
			if g.Visits, err = decodeVisits(d, len(g.Wires)); err != nil {
				return nil, err
			}
		}
		return g, nil
	},
	EncodeRes: func(e *Encoder, body any) error {
		r, ok := body.(GroupArriveRes)
		if !ok {
			return badBody(KindGroupArrive, body)
		}
		if err := checkSlices(KindGroupArrive, len(r.Outs), len(r.Paths), len(r.Wires), len(r.Visits)); err != nil {
			return err
		}
		// The single-visit outcomes keep the two-field form they have always
		// had, ArriveRes's; only a chained reply carries more.
		e.Byte(byte(r.Status))
		e.Ints(r.Outs)
		if r.Status == StatusExited {
			e.Int(r.Steps)
			e.Uvarint(uint64(len(r.Paths)))
			for _, p := range r.Paths {
				e.String(p)
			}
			e.Ints(r.Wires)
			if len(r.Visits) > 0 {
				e.Uvarint(uint64(len(r.Visits)))
				for _, st := range r.Visits {
					e.Byte(byte(st))
				}
			}
		}
		return nil
	},
	DecodeRes: func(d *Decoder) (any, error) {
		var r GroupArriveRes
		var err error
		if r.Status, err = decodeStatus(d, StatusExited); err != nil {
			return nil, err
		}
		if r.Outs, err = d.Ints(); err != nil {
			return nil, err
		}
		if r.Status != StatusExited {
			return r, nil
		}
		if r.Steps, err = d.Int(); err != nil {
			return nil, err
		}
		n, err := d.sliceLen()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			r.Paths = make([]string, n)
		}
		for i := range r.Paths {
			// Component paths are a small closed set, like addresses.
			if r.Paths[i], err = d.InternedString(); err != nil {
				return nil, err
			}
		}
		if r.Wires, err = d.Ints(); err != nil {
			return nil, err
		}
		if d.Remaining() > 0 {
			if r.Visits, err = decodeVisitRes(d, len(r.Outs)); err != nil {
				return nil, err
			}
		}
		if err := r.checkChained(); err != nil {
			return nil, err
		}
		return r, nil
	},
})

// decodeVisits consumes the visit tail of a GroupArrive of tokens tokens. An
// encoder writes it only for a visit or more, every visit takes at least one
// token, and the addressed component is left one.
func decodeVisits(d *Decoder, tokens int) ([]Visit, error) {
	n, err := d.sliceLen()
	if err == nil && n == 0 {
		err = fmt.Errorf("%w: empty visit list", ErrCorrupt)
	}
	if err != nil {
		return nil, err
	}
	visits := d.mem.visits(n)
	for i := range visits {
		v := &visits[i]
		// Component addresses are a small closed set, like To and From.
		if v.Addr, err = d.InternedString(); err != nil {
			return nil, err
		}
		if v.Tokens, err = d.Int(); err != nil {
			return nil, err
		}
		if v.Tokens <= 0 || v.Tokens >= tokens {
			return nil, fmt.Errorf("%w: visit of %d tokens in what is left of a group of %d", ErrCorrupt, v.Tokens, tokens)
		}
		tokens -= v.Tokens
	}
	return visits, nil
}

// decodeVisitRes consumes the visit tail of a chained GroupArriveRes over
// tokens tokens, which an encoder writes only for two visits or more, each
// of at least one token.
func decodeVisitRes(d *Decoder, tokens int) ([]Status, error) {
	n, err := d.sliceLen()
	if err == nil && (n < 2 || n > tokens) {
		err = fmt.Errorf("%w: %d visits by %d tokens", ErrCorrupt, n, tokens)
	}
	if err != nil {
		return nil, err
	}
	visits := make([]Status, n)
	for i := range visits {
		if visits[i], err = decodeStatus(d, StatusExited); err != nil {
			return nil, err
		}
	}
	return visits, nil
}

// checkChained rejects a chained group reply no handler can have produced:
// every token was stepped at least once (unless visits fared differently:
// only the sender knows which tokens were whose), a forwarded token names a
// listed component and has an input wire, and there are no more listed
// components than forwarded tokens.
func (r *GroupArriveRes) checkChained() error {
	if r.Steps < 0 || r.Visits == nil && r.Steps < len(r.Outs) {
		return fmt.Errorf("%w: chained group reply of %d steps for %d tokens", ErrCorrupt, r.Steps, len(r.Outs))
	}
	forwards := 0
	for _, out := range r.Outs {
		if out >= 0 {
			continue
		}
		forwards++
		if stop := -1 - out; stop >= len(r.Paths) {
			return fmt.Errorf("%w: forwarded token names component %d of %d", ErrCorrupt, stop, len(r.Paths))
		}
	}
	if forwards != len(r.Wires) || len(r.Paths) > forwards {
		return fmt.Errorf("%w: %d forwarded tokens with %d wires at %d components", ErrCorrupt, forwards, len(r.Wires), len(r.Paths))
	}
	for _, w := range r.Wires {
		if w < 0 {
			return fmt.Errorf("%w: forwarded token at input wire %d", ErrCorrupt, w)
		}
	}
	return nil
}

var _ = register(&Codec{
	Code: 3, Kind: KindFreeze,
	EncodeReq: encNone(KindFreeze),
	DecodeReq: decNone,
	EncodeRes: func(e *Encoder, body any) error {
		f, ok := body.(FreezeRes)
		if !ok {
			return badBody(KindFreeze, body)
		}
		if err := checkSlices(KindFreeze, len(f.Processed)); err != nil {
			return err
		}
		e.Uvarint(f.Total)
		e.Uint64s(f.Processed)
		return nil
	},
	DecodeRes: func(d *Decoder) (any, error) {
		var f FreezeRes
		var err error
		if f.Total, err = d.Uvarint(); err != nil {
			return nil, err
		}
		if f.Processed, err = d.Uint64s(); err != nil {
			return nil, err
		}
		return f, nil
	},
})

var _ = register(&Codec{
	Code: 4, Kind: KindTotal,
	EncodeReq: encNone(KindTotal),
	DecodeReq: decNone,
	EncodeRes: encUint64(KindTotal),
	DecodeRes: decUint64,
})

var _ = register(&Codec{
	Code: 7, Kind: KindCPF,
	EncodeReq: encUint64(KindCPF),
	DecodeReq: decUint64,
	EncodeRes: encUint64(KindCPF),
	DecodeRes: decUint64,
})

var _ = register(&Codec{
	Code: 8, Kind: KindProbe,
	EncodeReq: encUint64(KindProbe),
	DecodeReq: decUint64,
	EncodeRes: encUint64(KindProbe),
	DecodeRes: decUint64,
})

// encBlob / decBlob serve KindCtl both ways.
func encBlob(kind string) func(*Encoder, any) error {
	return func(e *Encoder, body any) error {
		b, ok := body.(Blob)
		if !ok {
			return badBody(kind, body)
		}
		return e.BlobBytes(b)
	}
}

func decBlob(d *Decoder) (any, error) {
	b, err := d.BlobBytes()
	if err != nil {
		return nil, err
	}
	return Blob(b), nil
}

var _ = register(&Codec{
	Code: 9, Kind: KindCtl,
	EncodeReq: encBlob(KindCtl),
	DecodeReq: decBlob,
	EncodeRes: encBlob(KindCtl),
	DecodeRes: decBlob,
})

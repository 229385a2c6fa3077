package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
)

// The per-kind fuzzers below all reduce to roundTripEnvelopes: build a
// (body, reply) pair for the kind from the fuzzer's primitive arguments,
// then require encode→frame→decode to reproduce both exactly. Seed inputs
// live in F.Add calls and in testdata/fuzz/<FuzzName>/, which `go test`
// always executes, so the corpus doubles as a regression suite.

// clampToken bounds fuzzed strings to what the codec can carry: encoders
// do not reject oversized strings (the deliverability check lives in the
// decoder), so an over-MaxString input would fail decode by design.
func clampToken(s string) string {
	if len(s) > MaxString {
		s = s[:MaxString]
	}
	return s
}

// shortStatus picks one of the two single-visit outcomes a reply may carry.
func shortStatus(v uint) Status {
	if v%2 == 0 {
		return StatusProcessed
	}
	return StatusDead
}

func FuzzArrive(f *testing.F) {
	f.Add(0, "t:1", uint64(1), byte(1), 0)
	f.Add(-3, "t:12#4", uint64(1)<<40, byte(2), 7)
	f.Add(1<<20, "", uint64(0), byte(3), -1)
	f.Fuzz(func(t *testing.T, w int, token string, seq uint64, status byte, out int) {
		body := Arrive{Wire: w, Token: clampToken(token), Seq: seq}
		reply := ArriveRes{Status: shortStatus(uint(status)), Out: out}
		roundTripEnvelopes(t, KindArrive, seq^uint64(status), body, reply)
	})
}

// FuzzArriveRes holds the arrive reply to its two-field form. The chained
// forms it once had — status 4, the token left the network on out after
// steps components; status 5, it stands at (path, w) after steps — are
// written as their encoder wrote them and must be refused as corrupt, and
// the two-field reply built from the same arguments must round-trip.
func FuzzArriveRes(f *testing.F) {
	f.Add(true, 41, 6, "", 0)
	f.Add(false, 0, 2, "201", 5)
	f.Add(false, -1, -7, "", 1<<40)
	c, _ := ByKind(KindArrive)
	f.Fuzz(func(t *testing.T, exited bool, out, steps int, path string, w int) {
		e := NewEncoder(16)
		if exited {
			e.Byte(4)
			e.Int(out)
			e.Int(steps)
		} else {
			e.Byte(5)
			e.Int(steps)
			e.String(clampToken(path))
			e.Int(w)
		}
		if _, err := c.DecodeRes(NewDecoder(e.Bytes())); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("retired arrive reply %v decodes with err=%v, want ErrCorrupt", e.Bytes(), err)
		}
		reply := ArriveRes{Status: shortStatus(uint(steps)), Out: out}
		roundTripEnvelopes(t, KindArrive, uint64(uint(steps)), Arrive{Wire: w, Token: "t:1", Seq: 1}, reply)
	})
}

// FuzzGroupArrive also covers the request's visit tail. The upper bits of
// status say how many further visits the message lists (none for the seeds
// that predate the tail) and rawOut, read as signed bytes, how many tokens
// each takes — so zero and negative counts, and counts that leave the
// addressed component nothing, are all within reach. A list every visit of
// which takes a token and leaves the addressed component one must round-trip;
// any other must be refused as corrupt by the decoder.
func FuzzGroupArrive(f *testing.F) {
	f.Add("t:1", []byte{1, 2, 3}, byte(0), []byte{9, 8, 7})
	f.Add("t:44#9", []byte{}, byte(1), []byte{})
	f.Add("", []byte{255, 0, 128, 64, 17}, byte(2), []byte{0})
	// Seed a 512-token group arrive, well past the small seeds: a group of
	// that size must stay round-trippable.
	const maxGroupTokens = 512
	maxGroup := make([]byte, maxGroupTokens)
	for i := range maxGroup {
		maxGroup[i] = byte(i * 37)
	}
	f.Add("t:max", maxGroup, byte(0), maxGroup[:8])
	f.Add("t:1", []byte{1, 2, 3, 4, 5, 6, 7}, byte(3<<2), []byte{2, 1, 3})    // 1 + 2 + 1 + 3 tokens
	f.Add("t:1", []byte{1, 2, 3, 4, 5, 6}, byte(3<<2|1), []byte{2, 1, 3})     // visits of the whole group
	f.Add("t:1", []byte{1, 2, 3, 4, 5, 6}, byte(2<<2), []byte{4, 4})          // visits of more than the group
	f.Add("t:1", []byte{1, 2, 3, 4, 5, 6}, byte(2<<2|2), []byte{1, 0})        // a visit of no tokens
	f.Add("t:1", []byte{1, 2, 3, 4, 5, 6}, byte(1<<2), []byte{0xfd})          // a visit of -3
	f.Add("t:max", maxGroup, byte(3<<2), []byte{100, 27, 1})                  // a full group, four visits
	f.Add("t:1", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(3<<2), []byte{2, 6}) // counts reused: 2 + 6 + 2 > 9
	// Wires are raw-128: bytes 64..191 are one-byte varints, the rest two
	// bytes, so these mix the decode loop's runs with long and negative values.
	f.Add("t:mix", []byte{128, 129, 127, 0, 130, 131, 255, 126, 64, 191, 63, 192, 128}, byte(0), []byte{1, 200})
	f.Add("t:mix", []byte{0, 128, 255, 128, 1, 254, 130, 2}, byte(1<<2), []byte{3})
	f.Add("t:mix", []byte{100, 101, 102, 103, 104, 105, 106, 107, 0}, byte(0), []byte{})
	f.Fuzz(func(t *testing.T, token string, raw []byte, status byte, rawOut []byte) {
		// Derive the parallel wires/seqs slices from one byte string so the
		// decode invariant len(Wires) == len(Seqs) holds by construction.
		var wires []int
		var seqs []uint64
		for i, b := range raw {
			wires = append(wires, int(b)-128)
			seqs = append(seqs, uint64(b)*131+uint64(i))
		}
		var outs []int
		for _, b := range rawOut {
			outs = append(outs, int(b))
		}
		body := GroupArrive{Token: clampToken(token), Wires: wires, Seqs: seqs}
		left, valid := len(raw), true
		for k := 0; k < int(status>>2)%4 && len(rawOut) > 0; k++ {
			v := Visit{Addr: "c:" + strings.Repeat("1", k) + "#7", Tokens: int(int8(rawOut[k%len(rawOut)]))}
			body.Visits = append(body.Visits, v)
			valid = valid && v.Tokens > 0 && v.Tokens < left
			left -= v.Tokens
		}
		reply := GroupArriveRes{Status: shortStatus(uint(status)), Outs: outs}
		if valid {
			roundTripEnvelopes(t, KindGroupArrive, uint64(len(raw)), body, reply)
			return
		}
		e := NewEncoder(64)
		if err := EncodeRequest(e, 1, transport.Request{ID: 2, From: "t:src", To: "c:dst#1", Kind: KindGroupArrive, Body: body}); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeFrame(e.Bytes()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("visits %+v of a group of %d decode with err=%v, want ErrCorrupt", body.Visits, len(raw), err)
		}
	})
}

// FuzzGroupArriveRes covers the group replies FuzzGroupArrive's signature
// cannot reach: the chained form, in which a token either left the network
// or is forwarded to one of the components the reply lists. Each byte of
// raw is one token: an odd byte forwards it (to path or to path+"0", so
// several tokens share a listed component), an even one is its output wire.
// steps/1000 says how many visits a chained reply lists (fewer than two: it
// has no visit tail, as in the seeds that predate it) and steps/4000 what
// became of each, two bits a visit; the tokens are dealt out evenly, and
// those of a visit that was stepped once or not at all say so.
// visitStatus maps two fuzzed bits to a visit's status: processed, dead
// twice (the retired status 2 stands in as dead), exited.
var visitStatus = [4]Status{StatusProcessed, StatusDead, StatusDead, StatusExited}

func FuzzGroupArriveRes(f *testing.F) {
	f.Add(true, []byte{0x10, 0x22, 0x7e}, 18, "")
	f.Add(true, []byte{0x03, 0x18, 0x05, 0x07}, 9, "201")
	f.Add(false, []byte{0x02, 0x04, 0x00}, 0, "")
	f.Add(true, []byte{0x03, 0x18, 0x05, 0x07, 0x11, 0x20, 0x09}, 3000+4000*0b111111+5, "201")  // three chained visits
	f.Add(true, []byte{0x03, 0x18, 0x05, 0x07, 0x11, 0x20, 0x09}, 3000+4000*0b110100+11, "20")  // stepped once, stored, chained
	f.Add(true, []byte{0x03, 0x18, 0x05, 0x07, 0x11, 0x20}, 2000+4000*0b1001, "")               // stored, dead: nothing stepped
	f.Add(true, []byte{0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07}, 3000+4000*0b111011, "") // forwards either side of a dead visit
	// Output wires past 63 take two bytes, forwards are negative: runs broken both ways.
	f.Add(false, []byte{0x02, 0x04, 0xfe, 0x06, 0x80, 0x08, 0x7e, 0x0a}, 0, "")
	f.Add(true, []byte{0x02, 0xfe, 0x03, 0x04, 0x81, 0x06, 0xff, 0x80}, 3000+4000*0b111111+9, "01")
	f.Fuzz(func(t *testing.T, chained bool, raw []byte, steps int, path string) {
		reply := GroupArriveRes{Status: StatusProcessed}
		if chained {
			reply.Status = StatusExited
			reply.Steps = len(raw) + int(uint(steps)%1000)
			if n := int(uint(steps) / 1000 % 4); n >= 2 && len(raw) >= n {
				for v, how := 0, uint(steps)/4000; v < n; v, how = v+1, how>>2 {
					reply.Visits = append(reply.Visits, visitStatus[how%4])
				}
			}
		}
		if len(path) >= MaxString {
			path = path[:MaxString-1]
		}
		for i, b := range raw {
			st := reply.Status // of the visit token i belongs to
			if n := len(reply.Visits); n > 0 {
				st = reply.Visits[min(i/(len(raw)/n), n-1)]
			}
			switch {
			case st == StatusDead:
				reply.Outs = append(reply.Outs, 0)
				continue
			case st == StatusProcessed || b&1 == 0:
				reply.Outs = append(reply.Outs, int(b>>1))
				continue
			}
			stop := path + strings.Repeat("0", int(b>>1&1))
			at := slices.Index(reply.Paths, stop)
			if at < 0 {
				at, reply.Paths = len(reply.Paths), append(reply.Paths, stop)
			}
			reply.Outs = append(reply.Outs, -1-at)
			reply.Wires = append(reply.Wires, int(b>>2))
		}
		body := GroupArrive{Token: "t:1", Wires: make([]int, len(raw)), Seqs: make([]uint64, len(raw))}
		if len(raw) == 0 {
			body.Wires, body.Seqs = nil, nil
		}
		roundTripEnvelopes(t, KindGroupArrive, uint64(len(raw)), body, reply)
	})
}

func FuzzFreeze(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(99), []byte{1, 2, 3, 4})
	f.Add(uint64(1)<<63, []byte{255, 255})
	f.Fuzz(func(t *testing.T, total uint64, raw []byte) {
		var processed []uint64
		for i, b := range raw {
			processed = append(processed, uint64(b)<<(i%8))
		}
		roundTripEnvelopes(t, KindFreeze, total, nil, FreezeRes{Total: total, Processed: processed})
	})
}

func FuzzTotal(f *testing.F) {
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, v uint64) {
		roundTripEnvelopes(t, KindTotal, v, nil, v)
	})
}

// FuzzKill and FuzzResume hold the two retired kinds refused: a kill
// request or reply (code 5) and a resume request or reply (code 6), written
// as their encoders wrote them, must fail with ErrUnknownKind.
func FuzzKill(f *testing.F) {
	f.Add(0)
	f.Add(-17)
	f.Add(1 << 30)
	f.Fuzz(func(t *testing.T, n int) {
		requireRetired(t, 5, uint64(uint(n)), func(*Encoder) {}, func(e *Encoder) { e.Int(n) })
	})
}

func FuzzResume(f *testing.F) {
	f.Add("", 0, uint64(0), false)
	f.Add("0110", 3, uint64(8), true)
	f.Add("1", -2, uint64(1)<<50, true)
	f.Fuzz(func(t *testing.T, path string, w int, seq uint64, ok bool) {
		requireRetired(t, 6, seq, func(e *Encoder) {
			e.String(clampToken(path))
			e.Int(w)
			e.Uvarint(seq)
		}, func(e *Encoder) { e.Bool(ok) })
	})
}

// requireRetired requires both retiredFrames of a kind code refused as of an
// unknown kind.
func requireRetired(t *testing.T, code byte, id uint64, req, res func(*Encoder)) {
	t.Helper()
	for _, frame := range retiredFrames(code, id, req, res) {
		if _, err := decodeFrame(frame); !errors.Is(err, ErrUnknownKind) {
			t.Fatalf("frame %q of retired kind code %d decodes with err=%v, want ErrUnknownKind", frame, code, err)
		}
	}
}

// retiredFrames writes a request and a reply of the retired kind code, the
// bodies by req and res.
func retiredFrames(code byte, id uint64, req, res func(*Encoder)) [2][]byte {
	e := NewEncoder(32)
	e.Byte(frameRequest)
	e.Uvarint(1)
	e.Uvarint(id)
	e.String("ctl")
	e.String("c:0#1")
	e.Uvarint(0) // trace id (unsampled)
	e.Uvarint(0) // span id
	e.Byte(code)
	req(e)
	request := append([]byte(nil), e.Bytes()...)
	e.Reset()
	e.Byte(frameReply)
	e.Uvarint(1)
	e.Byte(byte(ReplyOK))
	e.Byte(code)
	res(e)
	return [2][]byte{request, append([]byte(nil), e.Bytes()...)}
}

func FuzzCPF(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0xdead), uint64(0xbeef))
	f.Fuzz(func(t *testing.T, key, id uint64) {
		roundTripEnvelopes(t, KindCPF, key, key, id)
	})
}

func FuzzProbe(f *testing.F) {
	f.Add(uint64(41), uint64(42))
	f.Add(uint64(1)<<63, uint64(7))
	f.Fuzz(func(t *testing.T, k, id uint64) {
		roundTripEnvelopes(t, KindProbe, k, k, id)
	})
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoders a connection
// reader calls, DecodeReplyFrame and DecodeRequestFrame (see decodeFrame).
// The decoding-is-total contract: every input either fails with a typed
// error or decodes to a value that re-encodes and decodes back to itself.
// No input may panic.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with one well-formed frame of each shape so the fuzzer starts
	// from valid encodings and mutates toward near-valid corruption.
	for _, tc := range kindCases {
		c, _ := ByKind(tc.kind)
		e := NewEncoder(64)
		if err := EncodeRequest(e, 3, transport.Request{
			ID: 4, From: "t:a", To: "c:b", Kind: tc.kind, Body: tc.body,
		}); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), e.Bytes()...))
		e.Reset()
		if err := EncodeReply(e, 3, c.Code, ReplyOK, tc.reply, ""); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), e.Bytes()...))
	}
	// The retired kill and resume kinds, a request and a reply each as their
	// encoders wrote them: refused as unknown kinds.
	for _, frames := range [][2][]byte{
		retiredFrames(5, 4, func(*Encoder) {}, func(e *Encoder) { e.Int(-17) }),
		retiredFrames(6, 4, func(e *Encoder) {
			e.String("0110")
			e.Int(3)
			e.Uvarint(8)
		}, func(e *Encoder) { e.Bool(true) }),
	} {
		f.Add(frames[0])
		f.Add(frames[1])
	}
	e := NewEncoder(32)
	if err := EncodeReply(e, 9, 0, ReplyAppError, nil, "boom"); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), e.Bytes()...))
	for _, body := range retiredArriveReplies {
		e.Reset()
		e.Byte(frameReply)
		e.Uvarint(3)
		e.Byte(byte(ReplyOK))
		e.Byte(1) // KindArrive code
		f.Add(append(append([]byte(nil), e.Bytes()...), body...))
	}
	// One request carrying a sampled trace context, so mutation explores
	// the two trace-ID varints the envelope gained (the kindCases seeds
	// above all encode the unsampled two-zero-byte form).
	e.Reset()
	if err := EncodeRequest(e, 7, transport.Request{
		ID: 8, From: "t:a", To: "c:b", Kind: KindArrive,
		Trace: obs.TraceContext{TraceID: 0xdeadbeefcafef00d, SpanID: 0x0123456789abcdef},
		Body:  Arrive{Wire: 1, Token: "t:a", Seq: 8},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{frameRequest})
	f.Add([]byte{frameReply, 0, 9})
	for _, reply := range slices.Concat(groupChainReplies, groupVisitReplies) {
		e.Reset()
		if err := EncodeReply(e, 3, 2, ReplyOK, reply, ""); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), e.Bytes()...))
	}
	e.Reset()
	if err := EncodeRequest(e, 3, transport.Request{
		ID: 4, From: "t:a", To: "c:00#1", Kind: KindGroupArrive,
		Body: GroupArrive{Token: "t:a", Wires: []int{0, 1, 1, 0}, Seqs: []uint64{5, 6, 7, 8}, Visits: []Visit{{"c:01#2", 1}, {"c:10#3", 2}}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), e.Bytes()...))
	// A group whose wires mix one-byte runs with long and negative values.
	e.Reset()
	if err := EncodeRequest(e, 3, transport.Request{
		ID: 4, From: "t:a", To: "c:00#1", Kind: KindGroupArrive,
		Body: GroupArrive{Wires: []int{1, 2, 3, -70, 4, 5, 1 << 40, -1, 63, -64, 64, 7}, Visits: []Visit{{"c:01#2", 3}}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), e.Bytes()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeFrame(data)
		if err != nil {
			if !typedDecodeErr(err) {
				t.Fatalf("decode error %v is not a typed decode error", err)
			}
			return
		}
		switch m := v.(type) {
		case *Request:
			e := NewEncoder(len(data))
			if err := EncodeRequest(e, m.Mux, m.Req); err != nil {
				t.Fatalf("re-encode of decoded request failed: %v", err)
			}
			v2, err := decodeFrame(e.Bytes())
			if err != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v", err)
			}
			if !reflect.DeepEqual(v2, m) {
				t.Fatalf("request round trip drift:\n got %#v\nwant %#v", v2, m)
			}
		case *Reply:
			if !reEncodableReply(t, m, len(data)) {
				t.Fatalf("no registered codec re-encodes decoded reply %#v", m)
			}
		default:
			t.Fatalf("decodeFrame returned %T", v)
		}
	})
}

// FuzzReadFrameStream treats the input as a raw connection byte stream
// and reads frames off it the way a conn read loop does: ReadFrame into a
// buffer that is reused for the next frame, and each payload decoded by
// DecodeReplyFrame or DecodeRequestFrame into one reused Reply or Request.
// This is the surface a busy connection exercises — many frames landing
// back to back in one read-buffer fill — so the seeds pin that shape plus
// the MaxFrame boundary, and the invariants are: no panic, every payload
// within MaxFrame, every decode either total or a typed error, and
// decoded values independent of the shared buffer's reuse.
func FuzzReadFrameStream(f *testing.F) {
	// Seed: two frames (a request then its reply) back to back in one
	// stream.
	e := NewEncoder(64)
	if err := EncodeRequest(e, 5, transport.Request{
		ID: 6, From: "t:a", To: "c:b", Kind: KindArrive, Body: Arrive{Wire: 1, Token: "t:a", Seq: 2},
	}); err != nil {
		f.Fatal(err)
	}
	coalesced, err := appendFrame(nil, e.Bytes())
	if err != nil {
		f.Fatal(err)
	}
	e.Reset()
	c, _ := ByKind(KindArrive)
	if err := EncodeReply(e, 5, c.Code, ReplyOK, ArriveRes{Status: StatusProcessed, Out: 1}, ""); err != nil {
		f.Fatal(err)
	}
	if coalesced, err = appendFrame(coalesced, e.Bytes()); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), coalesced...))
	// Seed: a frame exactly at the MaxFrame boundary followed by another
	// frame, so buffer reuse after a maximal fill is exercised; and one
	// just past the boundary, which must fail typed.
	boundary, err := appendFrame(nil, make([]byte, MaxFrame))
	if err != nil {
		f.Fatal(err)
	}
	boundary, err = appendFrame(boundary, []byte{frameReply, 1, byte(ReplyAppError), 0})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(boundary)
	f.Add(binaryAppendUvarint(nil, MaxFrame+1))
	// Seed: a length prefix promising more than the stream carries.
	f.Add(binaryAppendUvarint(nil, 500))

	f.Fuzz(func(t *testing.T, data []byte) {
		// A small bufio buffer forces refills inside payloads, so frames
		// straddle fills as well as coalesce within one.
		br := bufio.NewReaderSize(bytes.NewReader(data), 64)
		var buf []byte
		var prevFrom string
		var req Request
		var rep Reply
		for {
			payload, err := ReadFrame(br, buf)
			if err != nil {
				if errors.Is(err, ErrTooLarge) || err == io.EOF || err == io.ErrUnexpectedEOF {
					return
				}
				// The only other failure is the length prefix itself being
				// unreadable (overlong varint).
				if !strings.Contains(err.Error(), "varint") {
					t.Fatalf("ReadFrame failed with unexpected error %v", err)
				}
				return
			}
			if len(payload) > MaxFrame {
				t.Fatalf("ReadFrame returned %d bytes > MaxFrame", len(payload))
			}
			isReply := IsReply(payload)
			if isReply {
				err = DecodeReplyFrame(payload, &rep)
			} else {
				err = DecodeRequestFrame(payload, &req)
			}
			if err != nil {
				if !typedDecodeErr(err) {
					t.Fatalf("decode error %v is not a typed decode error", err)
				}
			} else if !isReply {
				// Values decoded from an earlier fill must not be rewritten
				// by this one: strings copy out of the shared buffer.
				if prevFrom != "" && len(prevFrom) > MaxString {
					t.Fatalf("retained string grew to %d", len(prevFrom))
				}
				prevFrom = string(req.Req.From)
			}
			buf = payload[:0]
		}
	})
}

// reEncodableReply re-encodes a decoded reply and checks the second decode
// matches. A reply envelope does not record which kind produced it, and
// several kinds share a reply shape (the bare-uint64 kinds), so success
// under any registered code whose second decode matches is the property.
func reEncodableReply(t *testing.T, m *Reply, sizeHint int) bool {
	t.Helper()
	if m.Status != ReplyOK {
		e := NewEncoder(sizeHint)
		if err := EncodeReply(e, m.Mux, 0, m.Status, nil, m.ErrText); err != nil {
			t.Fatalf("re-encode of error reply failed: %v", err)
		}
		v2, err := decodeFrame(e.Bytes())
		if err != nil {
			t.Fatalf("re-decode of error reply failed: %v", err)
		}
		return reflect.DeepEqual(v2, m)
	}
	for code := 0; code < 256; code++ {
		c, ok := ByCode(byte(code))
		if !ok {
			continue
		}
		e := NewEncoder(sizeHint)
		if err := EncodeReply(e, m.Mux, c.Code, ReplyOK, m.Body, ""); err != nil {
			continue // this kind does not carry this body shape
		}
		v2, err := decodeFrame(e.Bytes())
		if err != nil {
			continue
		}
		if reflect.DeepEqual(v2, m) {
			return true
		}
	}
	return false
}

package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/transport"
)

// decodeFrame decodes a frame payload through the entry points a connection
// reader uses: DecodeReplyFrame for what IsReply says is a reply,
// DecodeRequestFrame for anything else.
func decodeFrame(payload []byte) (any, error) {
	if IsReply(payload) {
		r := new(Reply)
		if err := DecodeReplyFrame(payload, r); err != nil {
			return nil, err
		}
		return r, nil
	}
	r := new(Request)
	if err := DecodeRequestFrame(payload, r); err != nil {
		return nil, err
	}
	return r, nil
}

// appendFrame appends payload to dst as one frame, framed by FinishFrame the
// way a connection writer frames what it encodes.
func appendFrame(dst, payload []byte) ([]byte, error) {
	buf := make([]byte, FrameOverhead, FrameOverhead+len(payload))
	framed, err := FinishFrame(append(buf, payload...))
	if err != nil {
		return dst, err
	}
	return append(dst, framed...), nil
}

// roundTripEnvelopes pushes body through a request envelope and reply
// through a reply envelope — encode, frame, read frame, decode — and
// requires the decoded values to match exactly. Shared with the fuzzers.
func roundTripEnvelopes(t *testing.T, kind string, mux uint64, body, reply any) {
	t.Helper()
	c, ok := ByKind(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
	req := transport.Request{
		ID:   mux ^ 0x9e3779b9,
		From: "t:src",
		To:   "c:dst#1",
		Kind: kind,
		// Derive the trace context from mux so fuzz inputs sweep it
		// (mux 0 exercises the unsampled zero context).
		Trace: obs.TraceContext{TraceID: mux * 0x9e3779b97f4a7c15, SpanID: mux},
		Body:  body,
	}

	enc := NewEncoder(64)
	if err := EncodeRequest(enc, mux, req); err != nil {
		t.Fatalf("EncodeRequest(%s): %v", kind, err)
	}
	framed, err := appendFrame(nil, enc.Bytes())
	if err != nil {
		t.Fatalf("appendFrame: %v", err)
	}
	payload, err := ReadFrame(bufio.NewReader(bytes.NewReader(framed)), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := decodeFrame(payload)
	if err != nil {
		t.Fatalf("decodeFrame(request %s): %v", kind, err)
	}
	greq, ok := got.(*Request)
	if !ok {
		t.Fatalf("decoded %T, want *Request", got)
	}
	if greq.Mux != mux {
		t.Fatalf("mux %d, want %d", greq.Mux, mux)
	}
	if !reflect.DeepEqual(greq.Req, req) {
		t.Fatalf("request round trip:\n got %#v\nwant %#v", greq.Req, req)
	}

	enc.Reset()
	if err := EncodeReply(enc, mux, c.Code, ReplyOK, reply, ""); err != nil {
		t.Fatalf("EncodeReply(%s): %v", kind, err)
	}
	got, err = decodeFrame(enc.Bytes())
	if err != nil {
		t.Fatalf("decodeFrame(reply %s): %v", kind, err)
	}
	grep, ok := got.(*Reply)
	if !ok {
		t.Fatalf("decoded %T, want *Reply", got)
	}
	if grep.Mux != mux || grep.Status != ReplyOK {
		t.Fatalf("reply envelope {mux %d status %d}, want {%d OK}", grep.Mux, grep.Status, mux)
	}
	if !reflect.DeepEqual(grep.Body, reply) {
		t.Fatalf("reply round trip:\n got %#v\nwant %#v", grep.Body, reply)
	}
}

// kindCases is one valid (body, reply) pair per registered kind; the
// round-trip, truncation, and encode-rejection tests all iterate it so a
// new kind is covered by adding one entry.
var kindCases = []struct {
	kind  string
	body  any
	reply any
}{
	{KindArrive, Arrive{Wire: -3, Token: "t:12#4", Seq: 1 << 40}, ArriveRes{Status: StatusDead, Out: 7}},
	{KindGroupArrive,
		GroupArrive{Token: "t:9", Wires: []int{0, 5, -1}, Seqs: []uint64{3, 4, 1 << 60}},
		GroupArriveRes{Status: StatusProcessed, Outs: []int{2, 0, 9}}},
	{KindFreeze, nil, FreezeRes{Total: 99, Processed: []uint64{0, 1, 1 << 33}}},
	{KindTotal, nil, uint64(1<<64 - 1)},
	{KindCPF, uint64(0xdead), uint64(0xbeef)},
	{KindProbe, uint64(41), uint64(42)},
	{KindCtl, Blob(`{"op":"run","tokens":64}`), Blob(`{"ok":true}`)},
}

func TestRegistry(t *testing.T) {
	want := []string{KindArrive, KindGroupArrive, KindFreeze, KindTotal,
		KindCPF, KindProbe, KindCtl}
	if got := Kinds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for _, kind := range want {
		c, ok := ByKind(kind)
		if !ok {
			t.Fatalf("ByKind(%q) missing", kind)
		}
		c2, ok := ByCode(c.Code)
		if !ok || c2 != c {
			t.Fatalf("ByCode(%d) = %v, want codec for %q", c.Code, c2, kind)
		}
	}
	if _, ok := ByKind("nonesuch"); ok {
		t.Fatal("ByKind accepted an unregistered kind")
	}
	if _, ok := ByCode(0); ok {
		t.Fatal("ByCode accepted code 0")
	}
	if _, ok := ByCode(200); ok {
		t.Fatal("ByCode accepted code 200")
	}
	for _, code := range []byte{5, 6} { // kill and resume, retired
		if _, ok := ByCode(code); ok {
			t.Fatalf("ByCode accepted the retired code %d", code)
		}
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for i, tc := range kindCases {
		roundTripEnvelopes(t, tc.kind, uint64(1000+i), tc.body, tc.reply)
	}
	// Empty group and empty freeze snapshot: zero-length slices decode as
	// nil, so nil is the canonical empty form.
	roundTripEnvelopes(t, KindGroupArrive, 1, GroupArrive{Token: "t:0"}, GroupArriveRes{Status: StatusDead})
	roundTripEnvelopes(t, KindFreeze, 2, nil, FreezeRes{Total: 0})
	for i, reply := range groupChainReplies {
		roundTripEnvelopes(t, KindGroupArrive, uint64(10+i), GroupArrive{Token: "t:1", Wires: []int{0, 1, 2}, Seqs: []uint64{7, 8, 9}}, reply)
	}
	// A group without sequence numbers, as dist sends it.
	roundTripEnvelopes(t, KindGroupArrive, 3, GroupArrive{Wires: []int{4, 0}}, GroupArriveRes{Status: StatusProcessed, Outs: []int{1, 2}})
	// A message of three visits, and the replies to one.
	visits := GroupArrive{Token: "t:1", Wires: []int{0, 1, 2, 0, 5, 5}, Seqs: []uint64{7, 8, 9, 10, 11, 12},
		Visits: []Visit{{Addr: "c:01#3", Tokens: 1}, {Addr: "c:2#9", Tokens: 3}}}
	for i, reply := range groupVisitReplies {
		roundTripEnvelopes(t, KindGroupArrive, uint64(20+i), visits, reply)
	}
}

// groupVisitReplies are replies to a group arrive whose three visits fared
// differently: one stepped and not chained before two turned away; the last
// one stepped after two turned away; forwards on both sides of a visit that
// was not stepped.
var groupVisitReplies = []GroupArriveRes{
	{Status: StatusExited, Outs: []int{1, 0, 0, 0, 0, 0}, Steps: 2, Visits: []Status{StatusProcessed, StatusDead, StatusDead}},
	{Status: StatusExited, Outs: []int{0, 0, 0, 0, 3, 1}, Steps: 3, Visits: []Status{StatusDead, StatusDead, StatusProcessed}},
	{Status: StatusExited, Outs: []int{-1, -2, 0, -1, 3, -2}, Steps: 9, Paths: []string{"13", ""}, Wires: []int{1, 0, 1, 2},
		Visits: []Status{StatusExited, StatusDead, StatusExited}},
}

// groupChainReplies are group arrive replies in the chained form: every
// token left the network; some are forwarded, several to one component; a
// whole group is forwarded at a partition boundary.
var groupChainReplies = []GroupArriveRes{
	{Status: StatusExited, Outs: []int{41, 0, 7}, Steps: 18},
	{Status: StatusExited, Outs: []int{-1, 12, -2, -1}, Steps: 9, Paths: []string{"201", ""}, Wires: []int{5, 0, 3}},
	{Status: StatusExited, Outs: []int{-1, -1}, Steps: 2, Paths: []string{"13"}, Wires: []int{1, 1}},
}

// TestGroupChainReplyRejectsImpossible: the decoder refuses a chained group
// reply that no handler can have produced, each as ErrCorrupt.
func TestGroupChainReplyRejectsImpossible(t *testing.T) {
	c, _ := ByKind(KindGroupArrive)
	for name, r := range map[string]GroupArriveRes{
		"forward index out of range":    {Status: StatusExited, Outs: []int{3, -2}, Steps: 2, Paths: []string{"1"}, Wires: []int{0}},
		"forwards without wires":        {Status: StatusExited, Outs: []int{-1, -1}, Steps: 2, Paths: []string{"1"}, Wires: []int{0}},
		"wires without forwards":        {Status: StatusExited, Outs: []int{3, 4}, Steps: 2, Wires: []int{0}},
		"more components than forwards": {Status: StatusExited, Outs: []int{-1, 4}, Steps: 2, Paths: []string{"1", "2"}, Wires: []int{0}},
		"negative input wire":           {Status: StatusExited, Outs: []int{-1}, Steps: 1, Paths: []string{"1"}, Wires: []int{-4}},
		"fewer steps than tokens":       {Status: StatusExited, Outs: []int{3, 4}, Steps: 1},
		"one visit listed":              {Status: StatusExited, Outs: []int{3, 4}, Steps: 2, Visits: []Status{StatusExited}},
		"more visits than tokens":       {Status: StatusExited, Outs: []int{3, 4}, Steps: 2, Visits: []Status{StatusExited, StatusDead, StatusDead}},
		"visit with status 5":           {Status: StatusExited, Outs: []int{3, 4}, Steps: 2, Visits: []Status{StatusExited, 5}},
		"visit with status 0":           {Status: StatusExited, Outs: []int{3, 4}, Steps: 2, Visits: []Status{StatusExited, 0}},
		"negative steps":                {Status: StatusExited, Outs: []int{3, 0}, Steps: -1, Visits: []Status{StatusExited, StatusDead}},
		"forwards short across visits":  {Status: StatusExited, Outs: []int{-1, 0, -1}, Steps: 2, Paths: []string{"1"}, Wires: []int{0}, Visits: []Status{StatusExited, StatusDead, StatusExited}},
		"visit with status 2":           {Status: StatusExited, Outs: []int{3, 4}, Steps: 2, Visits: []Status{StatusExited, 2}},
	} {
		e := NewEncoder(32)
		if err := c.EncodeRes(e, r); err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecodeRes(NewDecoder(e.Bytes())); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestGroupVisitsRejectImpossible: the decoder refuses a visit list no
// sender can have produced, each as ErrCorrupt — a visit of no tokens or of
// a negative number, visits that leave the addressed component nothing, and
// the non-canonical empty list.
func TestGroupVisitsRejectImpossible(t *testing.T) {
	c, _ := ByKind(KindGroupArrive)
	group := func(visits ...Visit) GroupArrive {
		return GroupArrive{Token: "t:1", Wires: []int{0, 1, 2, 3}, Seqs: []uint64{1, 2, 3, 4}, Visits: visits}
	}
	for name, g := range map[string]GroupArrive{
		"visit of no tokens":        group(Visit{"c:1#2", 1}, Visit{"c:2#3", 0}),
		"visit of negative tokens":  group(Visit{"c:1#2", -2}),
		"visits of the whole group": group(Visit{"c:1#2", 1}, Visit{"c:2#3", 3}),
		"visits of more":            group(Visit{"c:1#2", 9}),
	} {
		e := NewEncoder(32)
		if err := c.EncodeReq(e, g); err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecodeReq(NewDecoder(e.Bytes())); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	e := NewEncoder(32)
	if err := c.EncodeReq(e, group()); err != nil {
		t.Fatal(err)
	}
	single := len(e.Bytes())
	e.Uvarint(0) // a visit tail that lists nothing
	if _, err := c.DecodeReq(NewDecoder(e.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty visit list: %v, want ErrCorrupt", err)
	}
	// The tail is all a visit list adds: the bytes before it are the
	// single-visit message, as every older frame has them.
	e.Reset()
	if err := c.EncodeReq(e, group(Visit{"c:1#2", 1})); err != nil {
		t.Fatal(err)
	}
	alone := NewEncoder(32)
	if err := c.EncodeReq(alone, group()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Bytes()[:single], alone.Bytes()) || !bytes.Equal(e.Bytes()[single:], []byte{1, 5, 'c', ':', '1', '#', '2', 2}) {
		t.Fatalf("a one-visit list encodes as %v after %v", e.Bytes()[single:], e.Bytes()[:single])
	}
}

// TestVisitAddressesDecodeThroughInternTable: the addresses a group arrive
// lists are component endpoints like the one it is addressed to, so a warm
// decode of a message with visits allocates for its slices and its boxed
// body and nothing per address.
func TestVisitAddressesDecodeThroughInternTable(t *testing.T) {
	frame := func(g GroupArrive) []byte {
		e := NewEncoder(0)
		if err := EncodeRequest(e, 3, transport.Request{ID: 4, From: "t:a", To: "c:0#1", Kind: KindGroupArrive, Body: g}); err != nil {
			t.Fatal(err)
		}
		return e.Bytes()
	}
	g := GroupArrive{Token: "t:a", Wires: []int{0, 1, 2, 3}, Seqs: []uint64{1, 2, 3, 4}}
	alone := frame(g)
	g.Visits = []Visit{{"c:100#7", 1}, {"c:101#8", 1}, {"c:110#9", 1}}
	listed := frame(g)
	var req Request
	decode := func(b []byte) func() {
		return func() {
			if err := DecodeRequestFrame(b, &req); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode(listed)() // first sight interns the addresses
	first := req.Req.Body.(GroupArrive).Visits[2].Addr
	base, got := testing.AllocsPerRun(200, decode(alone)), testing.AllocsPerRun(200, decode(listed))
	if got > base+1 { // the visit slice
		t.Fatalf("a warm group arrive of three further visits decodes with %.0f allocations, one of none with %.0f", got, base)
	}
	if again := req.Req.Body.(GroupArrive).Visits[2].Addr; unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatal("the address was copied again instead of coming out of the intern table")
	}
}

// TestFuzzCorpusFramesAreByteStable: every frame checked in under
// testdata/fuzz — the FuzzDecodeFrame corpus, whose inputs are frame
// payloads — still decodes to what it did (or is still refused, typed), and
// what it decodes to encodes back to the same bytes: optional tails added to
// a message since the frame was written have not moved a byte of it. The
// other corpora hold fuzz-function arguments, which their fuzz functions
// replay on every `go test`.
func TestFuzzCorpusFramesAreByteStable(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus found: %v", err)
	}
	frames := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if lines[0] != "go test fuzz v1" || len(lines) < 2 {
			t.Fatalf("%s: not a fuzz corpus file", file)
		}
		if filepath.Base(filepath.Dir(file)) != "FuzzDecodeFrame" {
			continue
		}
		lit, ok := strings.CutPrefix(lines[1], "[]byte(")
		if !ok || len(lines) != 2 {
			t.Fatalf("%s: want one []byte argument", file)
		}
		quoted, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		payload := []byte(quoted)
		frames++
		v, err := decodeFrame(payload)
		if err != nil {
			if !typedDecodeErr(err) {
				t.Fatalf("%s: %v is not a typed decode error", file, err)
			}
			continue
		}
		e := NewEncoder(len(payload))
		switch m := v.(type) {
		case *Request:
			err = EncodeRequest(e, m.Mux, m.Req)
		case *Reply:
			// The envelope does not say which kind replied; the body's type does.
			code := map[string]byte{"wire.ArriveRes": 1, "wire.GroupArriveRes": 2, "uint64": 4}[fmt.Sprintf("%T", m.Body)]
			err = EncodeReply(e, m.Mux, code, m.Status, m.Body, m.ErrText)
		}
		if err != nil {
			t.Fatalf("%s: re-encode: %v", file, err)
		}
		if !bytes.Equal(e.Bytes(), payload) {
			t.Fatalf("%s: decodes to %#v, which encodes as\n%q, the file holds\n%q", file, v, e.Bytes(), payload)
		}
	}
	if frames < 10 {
		t.Fatalf("%d frames checked, the corpus held 10 when this test was written", frames)
	}
}

// retiredArriveReplies are arrive reply bodies in the chained forms the
// reply once had, as their encoder wrote them: the token left the network
// (status 4: output wire 41 after 6 steps), or stands at (path, wire)
// (status 5: after 2 steps at "201" wire 5; after 1 step at the root, wire
// 0). No handler sends them any more, and a decoder refuses them.
var retiredArriveReplies = [][]byte{
	{4, 82, 12},
	{5, 4, 3, '2', '0', '1', 10},
	{5, 2, 0, 0},
}

// TestArriveResKeepsItsShortForm pins the wire format of the two
// outcomes at what it has always been: status byte then output wire,
// nothing after, so every frame written by or for an older peer — and
// every such frame in the fuzz corpus — decodes to the value it always has.
// The chained forms the reply once had (statuses 4 and 5) and the stored
// outcome (status 2) are refused. The group reply is held to the same rule:
// status byte then the output wires for its two single-visit outcomes,
// status 4 for its chained form, and statuses 2 and 5 refused.
func TestArriveResKeepsItsShortForm(t *testing.T) {
	c, _ := ByKind(KindArrive)
	for _, st := range []Status{StatusProcessed, StatusDead} {
		e := NewEncoder(8)
		if err := c.EncodeRes(e, ArriveRes{Status: st, Out: -3}); err != nil {
			t.Fatal(err)
		}
		if want := []byte{byte(st), 5}; !bytes.Equal(e.Bytes(), want) { // zigzag(-3) = 5
			t.Fatalf("status %d encodes as %v, want %v", st, e.Bytes(), want)
		}
		got, err := c.DecodeRes(NewDecoder(e.Bytes()))
		if err != nil || got != (ArriveRes{Status: st, Out: -3}) {
			t.Fatalf("status %d decodes as (%#v, %v)", st, got, err)
		}
	}
	gc, _ := ByKind(KindGroupArrive)
	for _, st := range []Status{StatusProcessed, StatusDead} {
		e := NewEncoder(8)
		if err := gc.EncodeRes(e, GroupArriveRes{Status: st, Outs: []int{-3, 1}, Steps: 9, Paths: []string{"1"}, Wires: []int{2}}); err != nil {
			t.Fatal(err)
		}
		if want := []byte{byte(st), 2, 5, 2}; !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("group status %d encodes as %v, want %v", st, e.Bytes(), want)
		}
		got, err := gc.DecodeRes(NewDecoder(e.Bytes()))
		if want := (GroupArriveRes{Status: st, Outs: []int{-3, 1}}); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("group status %d decodes as (%#v, %v)", st, got, err)
		}
	}
	for _, st := range []Status{2, 5, 6} {
		if _, err := gc.DecodeRes(NewDecoder([]byte{byte(st), 0})); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("group reply with status %d: %v, want ErrCorrupt", st, err)
		}
	}
	for _, body := range append(retiredArriveReplies, []byte{2, 14}, []byte{6, 0}) {
		if _, err := c.DecodeRes(NewDecoder(body)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("arrive reply %v: %v, want ErrCorrupt", body, err)
		}
	}
}

// TestForwardReplyDecodesThroughInternTable: component paths are a small
// closed set, so the path a chained group reply forwards a token to decodes
// to the interned copy, and a warm decode allocates what the short reply
// does — its output wires and the boxed body — plus the path and wire
// slices, and nothing for the string.
func TestForwardReplyDecodesThroughInternTable(t *testing.T) {
	c, _ := ByKind(KindGroupArrive)
	frame := func(r GroupArriveRes) []byte {
		e := NewEncoder(0)
		if err := EncodeReply(e, 3, c.Code, ReplyOK, r, ""); err != nil {
			t.Fatal(err)
		}
		return e.Bytes()
	}
	short := frame(GroupArriveRes{Status: StatusProcessed, Outs: []int{3}})
	forward := frame(GroupArriveRes{Status: StatusExited, Outs: []int{-1}, Steps: 3, Paths: []string{"2011"}, Wires: []int{7}})
	var rep Reply
	decode := func(b []byte) func() {
		return func() {
			if err := DecodeReplyFrame(b, &rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode(forward)() // first sight interns the path
	first := rep.Body.(GroupArriveRes).Paths[0]
	base, got := testing.AllocsPerRun(200, decode(short)), testing.AllocsPerRun(200, decode(forward))
	if got > base+2 { // the path and wire slices
		t.Fatalf("a warm forward reply decodes with %.0f allocations, the short reply with %.0f", got, base)
	}
	if again := rep.Body.(GroupArriveRes).Paths[0]; unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatal("the path was copied again instead of coming out of the intern table")
	}
}

func TestEncodeRejectsWrongBody(t *testing.T) {
	type alien struct{ X int }
	for _, tc := range kindCases {
		c, _ := ByKind(tc.kind)
		e := NewEncoder(16)
		if err := c.EncodeReq(e, alien{}); err == nil {
			t.Errorf("%s: EncodeReq accepted alien body", tc.kind)
		}
		if err := c.EncodeRes(e, alien{}); err == nil {
			t.Errorf("%s: EncodeRes accepted alien reply", tc.kind)
		}
		if tc.body == nil {
			// No-body kinds must also reject a spurious body.
			if err := c.EncodeReq(e, 7); err == nil {
				t.Errorf("%s: EncodeReq accepted spurious body", tc.kind)
			}
		}
	}
	e := NewEncoder(16)
	if err := EncodeRequest(e, 1, transport.Request{Kind: "nonesuch"}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("EncodeRequest(unknown kind) = %v, want ErrUnknownKind", err)
	}
	if err := EncodeReply(e, 1, 200, ReplyOK, nil, ""); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("EncodeReply(unknown code) = %v, want ErrUnknownKind", err)
	}
	gc, _ := ByKind(KindGroupArrive)
	if err := gc.EncodeReq(e, GroupArrive{Wires: []int{1, 2}, Seqs: []uint64{7}}); err == nil {
		t.Fatal("EncodeReq accepted group with mismatched wires/seqs")
	}
	if err := gc.EncodeReq(e, GroupArrive{Wires: []int{1, 2}}); err != nil {
		t.Fatalf("EncodeReq refused a group without seqs: %v", err)
	}
}

// TestEncodeRefusesSlicesPastMaxSlice: a message with a slice no decoder
// takes fails at the encoder with ErrTooLarge and leaves no frame, while one
// at the bound still round-trips.
func TestEncodeRefusesSlicesPastMaxSlice(t *testing.T) {
	group := func(n int) GroupArrive {
		return GroupArrive{Token: "t:1", Wires: make([]int, n), Seqs: make([]uint64, n)}
	}
	gc, _ := ByKind(KindGroupArrive)
	e := NewEncoder(0)
	if err := gc.EncodeReq(e, group(MaxSlice+1)); !errors.Is(err, ErrTooLarge) || e.Len() != 0 {
		t.Fatalf("group arrive of %d wires: %d bytes, %v; want none and ErrTooLarge", MaxSlice+1, e.Len(), err)
	}
	req := transport.Request{ID: 2, From: "t:1", To: "c:0#1", Kind: KindGroupArrive, Body: group(MaxSlice)}
	if err := EncodeRequest(e, 1, req); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeFrame(e.Bytes()); err != nil {
		t.Fatalf("a group of MaxSlice tokens does not decode: %v", err)
	}

	long := make([]int, MaxSlice+1)
	replies := []struct {
		kind string
		body any
	}{
		{KindGroupArrive, GroupArriveRes{Status: StatusProcessed, Outs: long}},
		{KindGroupArrive, GroupArriveRes{Status: StatusExited, Outs: []int{-1}, Paths: []string{"0"}, Wires: long}},
		{KindFreeze, FreezeRes{Total: 1, Processed: make([]uint64, MaxSlice+1)}},
	}
	for _, r := range replies {
		c, _ := ByKind(r.kind)
		e := NewEncoder(0)
		if err := c.EncodeRes(e, r.body); !errors.Is(err, ErrTooLarge) || e.Len() != 0 {
			t.Errorf("%s reply %T: %d bytes, %v; want none and ErrTooLarge", r.kind, r.body, e.Len(), err)
		}
	}
}

// typedDecodeErr reports whether err wraps one of the codec's typed decode
// errors — the contract is that a frame decode fails only through these.
func typedDecodeErr(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) ||
		errors.Is(err, ErrUnknownKind) || errors.Is(err, ErrTooLarge)
}

func TestTruncatedFramesAreTyped(t *testing.T) {
	for _, tc := range kindCases {
		c, _ := ByKind(tc.kind)
		enc := NewEncoder(64)
		if err := EncodeRequest(enc, 5, transport.Request{
			ID: 6, From: "t:a", To: "c:b", Kind: tc.kind, Body: tc.body,
		}); err != nil {
			t.Fatalf("%s: encode request: %v", tc.kind, err)
		}
		full := append([]byte(nil), enc.Bytes()...)
		for cut := 0; cut < len(full); cut++ {
			if _, err := decodeFrame(full[:cut]); !typedDecodeErr(err) {
				t.Fatalf("%s: request prefix %d/%d decoded with err=%v, want typed error",
					tc.kind, cut, len(full), err)
			}
		}

		enc.Reset()
		if err := EncodeReply(enc, 5, c.Code, ReplyOK, tc.reply, ""); err != nil {
			t.Fatalf("%s: encode reply: %v", tc.kind, err)
		}
		full = append([]byte(nil), enc.Bytes()...)
		for cut := 0; cut < len(full); cut++ {
			if _, err := decodeFrame(full[:cut]); !typedDecodeErr(err) {
				t.Fatalf("%s: reply prefix %d/%d decoded with err=%v, want typed error",
					tc.kind, cut, len(full), err)
			}
		}
	}
}

func TestCorruptFramesAreTyped(t *testing.T) {
	// Each case builds a frame payload by hand and names the typed error it
	// must fail with.
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01) // > MaxVarintLen64
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, ErrTruncated},
		{"bad frame tag", []byte{9}, ErrCorrupt},
		{"overlong mux varint", append([]byte{frameRequest}, overlong...), ErrCorrupt},
		{"bad reply status", func() []byte {
			e := NewEncoder(8)
			e.Byte(frameReply)
			e.Uvarint(1)
			e.Byte(9) // not a ReplyStatus
			return e.Bytes()
		}(), ErrCorrupt},
		{"unknown request kind code", func() []byte {
			e := NewEncoder(16)
			e.Byte(frameRequest)
			e.Uvarint(1)
			e.Uvarint(2)
			e.String("t:a")
			e.String("c:b")
			e.Uvarint(0) // trace id (unsampled)
			e.Uvarint(0) // span id
			e.Byte(99)
			return e.Bytes()
		}(), ErrUnknownKind},
		{"unknown reply kind code", func() []byte {
			e := NewEncoder(8)
			e.Byte(frameReply)
			e.Uvarint(1)
			e.Byte(byte(ReplyOK))
			e.Byte(99)
			return e.Bytes()
		}(), ErrUnknownKind},
		{"arrive status zero", func() []byte {
			e := NewEncoder(8)
			e.Byte(frameReply)
			e.Uvarint(1)
			e.Byte(byte(ReplyOK))
			e.Byte(1) // KindArrive code
			e.Byte(0) // status below StatusProcessed
			e.Int(0)
			return e.Bytes()
		}(), ErrCorrupt},
		{"string over MaxString", func() []byte {
			e := NewEncoder(8)
			e.Byte(frameRequest)
			e.Uvarint(1)
			e.Uvarint(2)
			e.Uvarint(MaxString + 1) // From length prefix
			return e.Bytes()
		}(), ErrCorrupt},
		{"slice over MaxSlice", func() []byte {
			e := NewEncoder(32)
			e.Byte(frameReply)
			e.Uvarint(1)
			e.Byte(byte(ReplyOK))
			e.Byte(3) // KindFreeze code
			e.Uvarint(7)
			e.Uvarint(MaxSlice + 1) // Processed count
			return e.Bytes()
		}(), ErrCorrupt},
		{"group wires/seqs mismatch", func() []byte {
			e := NewEncoder(32)
			e.Byte(frameRequest)
			e.Uvarint(1)
			e.Uvarint(2)
			e.String("t:a")
			e.String("c:b")
			e.Uvarint(0) // trace id (unsampled)
			e.Uvarint(0) // span id
			e.Byte(2)    // KindGroupArrive code
			e.String("t:a")
			e.Ints([]int{1, 2})
			e.Uint64s([]uint64{5})
			return e.Bytes()
		}(), ErrCorrupt},
		{"retired resume reply", func() []byte {
			e := NewEncoder(8)
			e.Byte(frameReply)
			e.Uvarint(1)
			e.Byte(byte(ReplyOK))
			e.Byte(6) // the retired resume code
			e.Bool(true)
			return e.Bytes()
		}(), ErrUnknownKind},
		{"trailing garbage", func() []byte {
			e := NewEncoder(16)
			if err := EncodeReply(e, 1, 4, ReplyOK, uint64(7), ""); err != nil {
				panic(err)
			}
			e.Byte(0xff)
			return e.Bytes()
		}(), ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := decodeFrame(tc.payload); !errors.Is(err, tc.want) {
			t.Errorf("%s: decodeFrame = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestErrorReplyEnvelope(t *testing.T) {
	for _, status := range []ReplyStatus{ReplyAppError, ReplyUnreachable, ReplyBadRequest} {
		e := NewEncoder(32)
		if err := EncodeReply(e, 7, 0, status, nil, "it broke"); err != nil {
			t.Fatalf("EncodeReply(status %d): %v", status, err)
		}
		got, err := decodeFrame(e.Bytes())
		if err != nil {
			t.Fatalf("decodeFrame(status %d): %v", status, err)
		}
		rep := got.(*Reply)
		if rep.Status != status || rep.ErrText != "it broke" || rep.Body != nil {
			t.Fatalf("status %d round trip: %#v", status, rep)
		}
	}
	// Oversized error text is truncated to MaxString, not refused: an error
	// reply must always be deliverable.
	e := NewEncoder(2 * MaxString)
	if err := EncodeReply(e, 7, 0, ReplyAppError, nil, strings.Repeat("x", MaxString+100)); err != nil {
		t.Fatalf("EncodeReply(long text): %v", err)
	}
	got, err := decodeFrame(e.Bytes())
	if err != nil {
		t.Fatalf("decodeFrame(long text): %v", err)
	}
	if n := len(got.(*Reply).ErrText); n != MaxString {
		t.Fatalf("error text length %d, want %d", n, MaxString)
	}
}

func TestFrameIO(t *testing.T) {
	// Several frames back to back on one stream, including an empty payload.
	payloads := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{0xab}, 3000)}
	var stream []byte
	var err error
	for _, p := range payloads {
		if stream, err = appendFrame(stream, p); err != nil {
			t.Fatalf("appendFrame: %v", err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range payloads {
		buf, err = ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("frame #%d: got %d bytes, want %d", i, len(buf), len(want))
		}
	}
	if _, err := ReadFrame(br, buf); err != io.EOF {
		t.Fatalf("ReadFrame at clean end = %v, want io.EOF", err)
	}

	if _, err := appendFrame(nil, make([]byte, MaxFrame+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("appendFrame(oversize) = %v, want ErrTooLarge", err)
	}
	huge := binaryAppendUvarint(nil, MaxFrame+1)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge)), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadFrame(oversize prefix) = %v, want ErrTooLarge", err)
	}

	// A stream cut mid-payload is an unexpected EOF, never a short read.
	framed, _ := appendFrame(nil, []byte("truncate me"))
	for cut := 1; cut < len(framed); cut++ {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(framed[:cut])), nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("ReadFrame(cut %d) = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFinishFrame(t *testing.T) {
	// FinishFrame must frame a payload as its uvarint length then its bytes,
	// for every payload size class a varint length prefix distinguishes.
	for _, n := range []int{0, 1, 127, 128, 3000, MaxFrame} {
		payload := bytes.Repeat([]byte{0x5a}, n)
		want := append(binaryAppendUvarint(nil, uint64(n)), payload...)
		e := NewEncoder(FrameOverhead + n)
		e.Pad(FrameOverhead)
		e.buf = append(e.buf, payload...)
		got, err := FinishFrame(e.Bytes())
		if err != nil {
			t.Fatalf("FinishFrame(%d): %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("FinishFrame(%d) framing is not the length prefix and the payload", n)
		}
	}
	if _, err := FinishFrame(make([]byte, FrameOverhead-1)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("FinishFrame(under reserve) = %v, want ErrTruncated", err)
	}
	if _, err := FinishFrame(make([]byte, FrameOverhead+MaxFrame+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("FinishFrame(oversize) = %v, want ErrTooLarge", err)
	}
}

// TestDecodeIntoReuse drives one Request and one Reply value through
// decodes of different shapes — the pooled-value pattern the TCP fabric
// uses — and requires no state to leak between decodes.
func TestDecodeIntoReuse(t *testing.T) {
	c, _ := ByKind(KindArrive)

	var rep Reply
	e := NewEncoder(64)
	if err := EncodeReply(e, 1, 0, ReplyAppError, nil, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := DecodeReplyFrame(e.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != ReplyAppError || rep.ErrText != "boom" {
		t.Fatalf("error reply decode: %#v", rep)
	}
	e.Reset()
	if err := EncodeReply(e, 2, c.Code, ReplyOK, ArriveRes{Status: StatusDead}, ""); err != nil {
		t.Fatal(err)
	}
	if err := DecodeReplyFrame(e.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ErrText != "" {
		t.Fatalf("reused reply leaked ErrText %q", rep.ErrText)
	}
	if rep.Body != (ArriveRes{Status: StatusDead}) {
		t.Fatalf("reused reply body: %#v", rep.Body)
	}
	e.Reset()
	if err := EncodeReply(e, 3, 0, ReplyUnreachable, nil, "gone"); err != nil {
		t.Fatal(err)
	}
	if err := DecodeReplyFrame(e.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Body != nil {
		t.Fatalf("reused reply leaked Body %#v", rep.Body)
	}

	var req Request
	e.Reset()
	if err := EncodeRequest(e, 4, transport.Request{
		ID: 5, From: "t:a", To: "c:b", Kind: KindArrive, Body: Arrive{Wire: 1, Token: "t:a", Seq: 6},
	}); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequestFrame(e.Bytes(), &req); err != nil {
		t.Fatal(err)
	}
	want := Request{Mux: 4, Req: transport.Request{ID: 5, From: "t:a", To: "c:b", Kind: KindArrive, Body: Arrive{Wire: 1, Token: "t:a", Seq: 6}}}
	if !reflect.DeepEqual(req, want) {
		t.Fatalf("DecodeRequestFrame:\n got %#v\nwant %#v", req, want)
	}
	if IsReply(nil) || IsReply(e.Bytes()) {
		t.Fatal("IsReply misclassified a request frame")
	}
	// Tag mismatches are corrupt, not silently wrong-typed.
	if err := DecodeReplyFrame(e.Bytes(), &rep); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeReplyFrame(request payload) = %v, want ErrCorrupt", err)
	}
	e.Reset()
	if err := EncodeReply(e, 7, 0, ReplyAppError, nil, "x"); err != nil {
		t.Fatal(err)
	}
	if !IsReply(e.Bytes()) {
		t.Fatal("IsReply missed a reply frame")
	}
	if err := DecodeRequestFrame(e.Bytes(), &req); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeRequestFrame(reply payload) = %v, want ErrCorrupt", err)
	}
}

// TestReadFrameCoalesced reads back-to-back frames from one stream — the
// shape one read-buffer fill takes when several writes arrive together —
// reusing the shared read buffer between frames, and checks each decode is
// self-contained. The final frame sits exactly on the MaxFrame boundary.
func TestReadFrameCoalesced(t *testing.T) {
	e := NewEncoder(64)
	if err := EncodeRequest(e, 21, transport.Request{
		ID: 1, From: "t:a", To: "c:b", Kind: KindArrive, Body: Arrive{Wire: 3, Token: "t:a", Seq: 2},
	}); err != nil {
		t.Fatal(err)
	}
	reqPayload := append([]byte(nil), e.Bytes()...)
	e.Reset()
	if err := EncodeReply(e, 21, 0, ReplyAppError, nil, "later"); err != nil {
		t.Fatal(err)
	}
	repPayload := append([]byte(nil), e.Bytes()...)
	var stream []byte
	var err error
	for _, p := range [][]byte{reqPayload, repPayload, make([]byte, MaxFrame)} {
		if stream, err = appendFrame(stream, p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	buf, err = ReadFrame(br, buf)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := DecodeRequestFrame(buf, &req); err != nil || req.Mux != 21 {
		t.Fatalf("first coalesced frame: mux %d, err %v", req.Mux, err)
	}
	buf, err = ReadFrame(br, buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	var rep Reply
	if err := DecodeReplyFrame(buf, &rep); err != nil || rep.ErrText != "later" {
		t.Fatalf("second coalesced frame: %#v, err %v", rep, err)
	}
	// The second decode's strings must survive the buffer being overwritten
	// by the next (max-size) frame: decoded values never alias the buffer.
	buf, err = ReadFrame(br, buf[:0])
	if err != nil {
		t.Fatalf("MaxFrame boundary frame: %v", err)
	}
	if len(buf) != MaxFrame {
		t.Fatalf("boundary frame length %d, want %d", len(buf), MaxFrame)
	}
	if req.Req.From != "t:a" || rep.ErrText != "later" {
		t.Fatal("decoded values alias the shared read buffer")
	}
}

func binaryAppendUvarint(dst []byte, v uint64) []byte {
	e := NewEncoder(10)
	e.Uvarint(v)
	return append(dst, e.Bytes()...)
}

func TestDecoderPrimitives(t *testing.T) {
	e := NewEncoder(64)
	e.Varint(-1 << 40)
	e.Int(-5)
	e.Bool(true)
	e.Bool(false)
	d := NewDecoder(e.Bytes())
	if v, err := d.Varint(); err != nil || v != -1<<40 {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if v, err := d.Int(); err != nil || v != -5 {
		t.Fatalf("Int = %d, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v != true {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v != false {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if _, err := d.Byte(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Byte past end = %v, want ErrTruncated", err)
	}
}

// TestIntsRunsAndLongValues round-trips integer slices through the decode
// loop's two paths — runs of one-byte values read straight off the buffer,
// and longer varints through Int — in every mix, and requires every strict
// prefix of each encoding to fail typed, never to panic.
func TestIntsRunsAndLongValues(t *testing.T) {
	for _, vs := range [][]int{
		{0},
		{-64, 63, 0, -1, 1},                 // the one-byte extremes
		{64, -65, 1 << 20, -1 << 40},        // every value multi-byte
		{1, 2, 3, 300, 4, 5, -300, 6, 7},    // runs broken by long values
		{-1000, 1, 2, 3},                    // a long value first
		{1, 2, 3, math.MaxInt},              // a long value last
		{math.MinInt, -64, math.MaxInt, 63}, // the int extremes
	} {
		e := NewEncoder(64)
		e.Ints(vs)
		d := NewDecoder(e.Bytes())
		got, err := d.Ints()
		if err != nil || !reflect.DeepEqual(got, vs) || d.Finish() != nil {
			t.Fatalf("Ints(%v) decoded %v, %v", vs, got, err)
		}
		for n := 0; n < e.Len(); n++ {
			d := NewDecoder(e.Bytes()[:n])
			if got, err := d.Ints(); !errors.Is(err, ErrTruncated) {
				t.Fatalf("Ints(%v) cut to %d of %d bytes decoded %v, %v; want ErrTruncated", vs, n, e.Len(), got, err)
			}
		}
	}
}

// TestHugeSliceCountOnShortFrame sends a group frame that announces
// MaxSlice wires but carries 3 bytes of them: the decoder must refuse it as
// truncated before it allocates for the count, on the request path (into a
// Request's decode memory) and through the codec alone.
func TestHugeSliceCountOnShortFrame(t *testing.T) {
	e := NewEncoder(64)
	e.Byte(frameRequest)
	e.Uvarint(1) // mux
	e.Uvarint(2) // call ID
	e.String("t:a")
	e.String("c:b")
	e.Uvarint(0) // trace ID
	e.Uvarint(0) // span ID
	c, _ := ByKind(KindGroupArrive)
	e.Byte(c.Code)
	body := e.Len()
	e.String("") // token
	e.Uvarint(MaxSlice)
	e.Byte(2)
	e.Byte(4)
	e.Byte(6)
	frame := e.Bytes()
	for what, decode := range map[string]func() error{
		"DecodeRequestFrame": func() error { return DecodeRequestFrame(frame, new(Request)) },
		"DecodeReq": func() error {
			_, err := c.DecodeReq(NewDecoder(frame[body:]))
			return err
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: %d wires announced in 3 bytes: %v, want ErrTruncated", what, MaxSlice, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Fatalf("%s: refusing a 3-byte slice of %d allocated %d bytes", what, MaxSlice, alloc)
		}
	}
}

// TestRequestSlicesDecodeIntoRequestMemory: a group arrive decoded into a
// Request it has been decoded into before takes its Wires and Visits from
// the Request's memory, so only the boxed body allocates; a group past the
// bound a Request keeps between decodes still decodes whole, and is let go.
func TestRequestSlicesDecodeIntoRequestMemory(t *testing.T) {
	frameOf := func(tokens int) []byte {
		wires := make([]int, tokens)
		for i := range wires {
			wires[i] = i * 7 % 64
		}
		e := NewEncoder(64)
		if err := EncodeRequest(e, 1, transport.Request{ID: 2, From: "t:a", To: "c:b", Kind: KindGroupArrive,
			Body: GroupArrive{Wires: wires, Visits: []Visit{{"c:c", 2}, {"c:d", 3}}}}); err != nil {
			t.Fatal(err)
		}
		return e.Bytes()
	}
	var req Request
	group := frameOf(128)
	decode := func() {
		if err := DecodeRequestFrame(group, &req); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs > 1 {
		t.Fatalf("a group arrive decoded into a used Request allocates %.1f objects, want the boxed body alone", allocs)
	}
	ga := req.Req.Body.(GroupArrive)
	if len(ga.Wires) != 128 || ga.Wires[127] != 127*7%64 || len(ga.Visits) != 2 || ga.Visits[1] != (Visit{"c:d", 3}) {
		t.Fatalf("decoded %d wires, visits %v", len(ga.Wires), ga.Visits)
	}
	if cap(ga.Wires) != len(ga.Wires) || cap(ga.Visits) != len(ga.Visits) {
		t.Fatal("a decoded slice can be appended to over the Request's memory")
	}
	huge := frameOf(memKeep + 1)
	if err := DecodeRequestFrame(huge, &req); err != nil {
		t.Fatal(err)
	}
	if n := len(req.Req.Body.(GroupArrive).Wires); n != memKeep+1 {
		t.Fatalf("decoded %d wires of %d", n, memKeep+1)
	}
	decode()
	if cap(req.mem.intBlk) > memKeep {
		t.Fatalf("a Request keeps %d ints between decodes, past the bound %d", cap(req.mem.intBlk), memKeep)
	}
}

package tcpnet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// TestRouteValidation: the route table rejects inputs that used to be
// accepted silently — empty prefixes, malformed hostports, and a prefix
// re-added with a different target (which would silently shadow the
// earlier wiring). Re-adding the identical route stays an idempotent
// no-op.
func TestRouteValidation(t *testing.T) {
	a, b, c := newNet(t), newNet(t), newNet(t)

	if err := a.Route("", b.Addr()); err == nil {
		t.Fatal("Route accepted an empty prefix")
	}
	if err := a.Route("c:", "not-a-hostport"); err == nil {
		t.Fatal("Route accepted a hostport with no port")
	}
	if err := a.Route("c:0", b.Addr()); err != nil {
		t.Fatalf("Route: %v", err)
	}
	if err := a.Route("c:0", b.Addr()); err != nil {
		t.Fatalf("idempotent re-add: %v", err)
	}
	if err := a.Route("c:0", c.Addr()); err == nil {
		t.Fatal("Route silently re-pointed an installed prefix")
	} else if !strings.Contains(err.Error(), b.Addr()) {
		t.Fatalf("shadow error %q does not name the installed target %q", err, b.Addr())
	}
	if got := a.Site("c:05"); got != b.Addr() {
		t.Fatalf("c:05 resolves to %q after the rejected re-point, want %q", got, b.Addr())
	}
}

// TestRoutePrecedence: when several prefixes match one address the
// longest wins regardless of insertion order, and addresses matching no
// prefix stay on the local listener.
func TestRoutePrecedence(t *testing.T) {
	a, b, c := newNet(t), newNet(t), newNet(t)
	echo := func(tag uint64) transport.Handler {
		return func(req transport.Request) (any, error) { return req.Body.(uint64)*10 + tag, nil }
	}
	// The same endpoint address is bound on all three fabrics with a
	// distinguishable reply, so the reply value identifies which fabric
	// actually served the call.
	for i, n := range []*Net{a, b, c} {
		if err := n.Bind("c:0110#1", echo(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if err := n.Bind("c:9#1", echo(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Shorter prefix first, longer second: resolution must still prefer
	// the longer one.
	if err := a.Route("c:0", b.Addr()); err != nil {
		t.Fatalf("Route: %v", err)
	}
	if err := a.Route("c:0110#", c.Addr()); err != nil {
		t.Fatalf("Route: %v", err)
	}

	call := func(to transport.Addr) uint64 {
		t.Helper()
		reply, err := a.Send(transport.Request{ID: nextID(), To: to, Kind: wire.KindCPF, Body: uint64(7)}, time.Second)
		if err != nil {
			t.Fatalf("Send %s: %v", to, err)
		}
		return reply.(uint64)
	}
	if got := call("c:0110#1"); got != 72 {
		t.Fatalf("longest prefix: served by fabric %d, want 2 (c)", got-70)
	}
	if got := call("c:9#1"); got != 70 {
		t.Fatalf("unmatched address: served by fabric %d, want 0 (self)", got-70)
	}
	if got := a.Site("c:01#1"); got != b.Addr() {
		t.Fatalf("shorter prefix alone: c:01#1 resolves to %q, want b (%q)", got, b.Addr())
	}
}

// TestSiteFollowsRoutes: an address is served here ("") exactly when it
// resolves to this fabric's own listener, addresses that resolve to one
// other listener share its site and those that resolve to different ones do
// not, and the answer is read when asked — a route installed after
// construction (as launch does once every listener's address is known)
// moves the addresses under its prefix elsewhere, longest prefix first.
func TestSiteFollowsRoutes(t *testing.T) {
	a, b, c := newNet(t), newNet(t), newNet(t)
	var pl transport.Placer = a
	for _, addr := range []transport.Addr{"c:01#3", "c:2#7", "t:p0:1"} {
		if pl.Site(addr) != "" {
			t.Fatalf("%q not served here on a fabric with no routes", addr)
		}
	}
	if err := a.Route("c:01#", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if pl.Site("c:01#3") != b.Addr() {
		t.Fatal("an address routed to another fabric is still served here")
	}
	if pl.Site("c:2#7") != "" || pl.Site("c:011#1") != "" {
		t.Fatal("a route moved addresses outside its prefix")
	}
	if err := a.Route("c:3#", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Route("c:4#", c.Addr()); err != nil {
		t.Fatal(err)
	}
	if pl.Site("c:3#1") != pl.Site("c:01#3") || pl.Site("c:4#1") == pl.Site("c:3#1") {
		t.Fatalf("sites %q, %q, %q: want the first two on one fabric and the third on another",
			pl.Site("c:01#3"), pl.Site("c:3#1"), pl.Site("c:4#1"))
	}
	if err := a.Route("c:2#", a.Addr()); err != nil {
		t.Fatal(err)
	}
	if pl.Site("c:2#7") != "" {
		t.Fatal("an address routed back to this fabric's own listener is not served here")
	}
}

// TestRouteUnknownPrefix: an address routed at a fabric that never bound
// it is ErrUnreachable from the remote endpoint table, and a prefix
// pointed at a dead port is ErrUnreachable from the dialer — both the
// errors a mis-assembled partition spec produces.
func TestRouteUnknownPrefix(t *testing.T) {
	a, b := newNet(t), newNet(t)
	if err := a.Route("c:1", b.Addr()); err != nil {
		t.Fatalf("Route: %v", err)
	}
	_, err := a.Send(transport.Request{ID: nextID(), To: "c:1#1", Kind: wire.KindTotal}, time.Second)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("unbound remote endpoint: %v, want ErrUnreachable", err)
	}
	if err := a.Route("c:dead", "127.0.0.1:1"); err != nil {
		t.Fatalf("Route: %v", err)
	}
	_, err = a.Send(transport.Request{ID: nextID(), To: "c:dead#1", Kind: wire.KindTotal}, time.Second)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("dead target: %v, want ErrUnreachable", err)
	}
}

// TestThreeFabricTopology mirrors the partitioned runner's wiring: three
// fabrics each own a disjoint set of component addresses, every fabric
// routes the other two owners' prefixes at their listeners, and calls
// from any fabric land on the owner — including a two-hop pattern where
// B serves A's call and then calls onward to C's endpoint over its own
// routes, the shape a token takes crossing partition boundaries.
func TestThreeFabricTopology(t *testing.T) {
	nets := []*Net{newNet(t), newNet(t), newNet(t)}
	prefixes := []string{"c:00#", "c:01#", "c:10#"}
	for i, n := range nets {
		n := n
		own := transport.Addr(prefixes[i] + "1")
		if err := n.Bind(own, func(req transport.Request) (any, error) {
			return req.Body.(uint64) + uint64(i)*100, nil
		}); err != nil {
			t.Fatal(err)
		}
		for j, p := range prefixes {
			if j != i {
				if err := n.Route(p, nets[j].Addr()); err != nil {
					t.Fatalf("Route fabric %d prefix %q: %v", i, p, err)
				}
			}
		}
	}
	// B additionally serves a relay endpoint that calls onward to C.
	if err := nets[1].Bind("c:01#relay", func(req transport.Request) (any, error) {
		return nets[1].Send(transport.Request{
			ID: nextID(), From: req.To, To: "c:10#1", Kind: wire.KindCPF, Body: req.Body,
		}, time.Second)
	}); err != nil {
		t.Fatal(err)
	}

	// Every fabric reaches every owner.
	for i, n := range nets {
		for j, p := range prefixes {
			reply, err := n.Send(transport.Request{
				ID: nextID(), To: transport.Addr(p + "1"), Kind: wire.KindCPF, Body: uint64(7),
			}, time.Second)
			if err != nil {
				t.Fatalf("fabric %d -> owner %d: %v", i, j, err)
			}
			if want := uint64(7 + j*100); reply.(uint64) != want {
				t.Fatalf("fabric %d -> owner %d: reply %v, want %d", i, j, reply, want)
			}
		}
	}
	// Two-hop: A -> B's relay -> C.
	reply, err := nets[0].Send(transport.Request{
		ID: nextID(), To: "c:01#relay", Kind: wire.KindCPF, Body: uint64(5),
	}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.(uint64) != 205 {
		t.Fatalf("two-hop reply %v, want 205", reply)
	}
	// The relay hop was served by B and the onward hop by C.
	if d := nets[2].Stats().Delivered; d < 2 {
		t.Fatalf("fabric C delivered %d, want >=2 (direct + relayed)", d)
	}
}

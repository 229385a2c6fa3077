package launch

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/tree"
)

func TestSpecValidate(t *testing.T) {
	s, err := AutoSpec(16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every level-2 component owned exactly once across the two parts.
	cut, _ := s.Cut()
	if got := len(s.Partitions[0].Components) + len(s.Partitions[1].Components); got != len(cut) {
		t.Fatalf("partitions own %d components, cut has %d", got, len(cut))
	}

	bad := *s
	bad.Partitions = append([]Partition{}, s.Partitions...)
	bad.Partitions[1].Components = append([]string{}, s.Partitions[0].Components[0])
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "owned by both") {
		t.Fatalf("double ownership validated: %v", err)
	}

	bad = *s
	bad.Partitions = []Partition{
		{Name: "p", Components: s.Partitions[0].Components},
		{Name: "p2", Components: s.Partitions[1].Components},
	}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "prefix") {
		t.Fatalf("prefixed names validated: %v", err)
	}

	bad = *s
	bad.Partitions = []Partition{{Name: "only", Components: s.Partitions[0].Components}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "no partition") {
		t.Fatalf("uncovered cut validated: %v", err)
	}
}

func TestSpecSaveLoad(t *testing.T) {
	s, err := AutoSpec(8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Workload = Workload{Tokens: 256}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 8 || len(got.Partitions) != 2 || got.Workload.Tokens != 256 {
		t.Fatalf("round-tripped spec %+v", got)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load accepted a missing file")
	}
}

// TestTwoPartitionConservation is the tentpole acceptance property,
// in-process under -race: a 2-partition launch over real loopback
// sockets completes with exact global count conservation, the summed
// outputs satisfy the step property, and the merged trace contains at
// least one distributed trace whose spans were recorded by two distinct
// partitions.
func TestTwoPartitionConservation(t *testing.T) {
	spec, err := AutoSpec(16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec.TraceEvery = 1
	spec.TraceRetain = 4096
	spec.Workload = Workload{Tokens: 512, Burst: 64, Senders: 4}

	coord, workers, err := StartInProc(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = coord.Close()
		for _, w := range workers {
			_ = w.Close()
		}
	}()

	if err := coord.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.In.Total(); got != 512 {
		t.Fatalf("injected %d tokens across partitions, want 512", got)
	}
	if !res.Conserved {
		t.Fatalf("count conservation violated: in %d, out %d", res.In.Total(), res.Out.Total())
	}
	if !res.StepOK {
		t.Fatalf("summed outputs violate the step property: %v", res.Out)
	}
	if res.CrossTraces < 1 {
		t.Fatalf("no trace stitched across processes (parts: %d and %d spans)",
			len(res.Parts[0].Spans), len(res.Parts[1].Spans))
	}
	// Both partitions actually injected and actually served remote RPCs.
	for _, rep := range res.Parts {
		var in int64
		for _, v := range rep.In {
			in += v
		}
		if in != 256 {
			t.Fatalf("partition %s injected %d, want 256", rep.Name, in)
		}
		if rep.Wire.BytesIn == 0 || rep.Wire.BytesOut == 0 {
			t.Fatalf("partition %s moved no bytes on the wire", rep.Name)
		}
	}
	// The merged snapshot sums the per-partition counters and merges the
	// per-partition histograms.
	var bytesIn uint64
	for _, rep := range res.Parts {
		bytesIn += rep.Snapshot.Counters["tcpnet.bytes.in"]
	}
	if bytesIn == 0 {
		t.Fatal("no partition recorded tcpnet.bytes.in")
	}
	if got := res.Merged.Counters["tcpnet.bytes.in"]; got != bytesIn {
		t.Fatalf("merged tcpnet.bytes.in %d, want %d", got, bytesIn)
	}
	var hops int
	for _, rep := range res.Parts {
		hops += rep.Snapshot.Histograms["dist.hop.seconds"].Count
	}
	if hops == 0 {
		t.Fatal("no partition recorded hop latencies")
	}
	if got := res.Merged.Histograms["dist.hop.seconds"].Count; got != hops {
		t.Fatalf("merged hop histogram count %d, want %d", got, hops)
	}

	// The merged Perfetto export validates and names both partition rows.
	var buf bytes.Buffer
	if err := obs.WriteTraceEventsParts(&buf, res.TraceParts()); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTraceEvents(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	for _, p := range spec.Partitions {
		if !strings.Contains(buf.String(), `"name":"`+p.Name+`"`) {
			t.Fatalf("merged trace missing process row for %s", p.Name)
		}
	}

	if err := coord.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		w.Wait()
	}
}

// TestSeqAndAdaptiveModes drives token-by-token injection (bursts of one)
// through a small 2-partition launch, which must conserve.
func TestSeqAndAdaptiveModes(t *testing.T) {
	t.Run("seq", func(t *testing.T) {
		spec, err := AutoSpec(8, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		spec.Workload = Workload{Tokens: 128, Burst: 1, Senders: 2}
		coord, workers, err := StartInProc(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			_ = coord.Close()
			for _, w := range workers {
				_ = w.Close()
			}
		}()
		if _, err := coord.Run(); err != nil {
			t.Fatal(err)
		}
		res, err := coord.Gather()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Conserved || res.In.Total() != 128 {
			t.Fatalf("in %d out %d", res.In.Total(), res.Out.Total())
		}
		if !res.StepOK {
			t.Fatalf("step property violated: %v", res.Out)
		}
	})
}

// TestSeqModePaysCrossings: in a partitioned run injecting token by token
// (bursts of one), a token costs its entry
// message plus one message each time its path moves to a component another
// worker owns — a run of consecutive components on one worker is stepped
// inside one handler. The expected total is computed here from the spec's
// ownership map and the compiled routes alone: the number of tokens over
// every wire of the cut depends only on how many tokens entered on each
// network input, not on how the two workers' senders interleaved, so a
// sequential walk of the same inputs counts the same crossings.
func TestSeqModePaysCrossings(t *testing.T) {
	spec, err := AutoSpec(16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = Workload{Tokens: 384, Burst: 1, Senders: 2}
	coord, workers, err := StartInProc(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = coord.Close()
		for _, w := range workers {
			_ = w.Close()
		}
	}()
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved || res.In.Total() != 384 {
		t.Fatalf("in %d out %d", res.In.Total(), res.Out.Total())
	}
	if !res.StepOK {
		t.Fatalf("step property violated: %v", res.Out)
	}

	owner := map[tree.Path]string{}
	for _, p := range spec.Partitions {
		for _, c := range p.Components {
			owner[tree.Path(c)] = p.Name
		}
	}
	cut, err := spec.Cut()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tree.CompileRoutes(spec.Width, cut)
	if err != nil {
		t.Fatal(err)
	}
	comps := rt.Components()
	totals := make([]int, len(comps))
	var want, crossings, visits uint64
	for in, n := range res.In {
		for ; n > 0; n-- {
			want++ // the token's own message into the network
			prev := ""
			for at := rt.Entry(in); !at.Exited(); {
				c := comps[at.Comp]
				if prev != "" && owner[c.Path] != prev {
					crossings++
				}
				prev = owner[c.Path]
				visits++
				out := totals[at.Comp] % c.Width
				totals[at.Comp]++
				at = rt.Next(at.Comp, out)
			}
		}
	}
	want += crossings
	if crossings == 0 || want >= visits {
		t.Fatalf("%d crossings over %d component visits: the partition map does not exercise both cases", crossings, visits)
	}
	var got uint64
	for _, w := range workers {
		_, cs := w.Cluster.NetStats()
		got += cs.Calls
	}
	if got != want {
		t.Fatalf("%d arrive RPCs for %d tokens with %d crossings (%d component visits), want tokens + crossings = %d",
			got, res.In.Total(), crossings, visits, want)
	}
}

// TestGroupModePaysCrossings is TestSeqModePaysCrossings for bursts: one
// costs one group RPC per worker that owns a component
// its tokens stand at when a round starts, and as many rounds as 1 + the
// most partition crossings on any of its tokens' paths — a handler serves
// the message's visit to each of those components, steps the whole group on
// through every component its own worker owns and reports the rest by
// position.
// The expected total is computed here from the spec's ownership map and the
// compiled routes alone. Every burst carries the same number of tokens on
// every network input wire, so every visit below is by a multiple of the
// component's width and leaves equally many tokens on each of its output
// wires whatever the component's state: the count does not depend on how
// the two workers' bursts interleaved (the model checks that premise).
// AutoSpec deals components out round-robin, about the worst ownership map
// there is: nearly every hop crosses, the tokens of a burst fall out of step
// with each other, and a component is visited in several rounds — which
// costs rounds, but no longer RPCs per round: there are only two workers to
// send to.
func TestGroupModePaysCrossings(t *testing.T) {
	const burst, bursts = 512, 3 // per worker
	spec, err := AutoSpec(16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = Workload{Tokens: 2 * bursts * burst, Burst: burst, Senders: 1}
	coord, workers, err := StartInProc(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = coord.Close()
		for _, w := range workers {
			_ = w.Close()
		}
	}()
	if _, err := coord.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved || res.In.Total() != 2*bursts*burst {
		t.Fatalf("in %d out %d", res.In.Total(), res.Out.Total())
	}
	if !res.StepOK {
		t.Fatalf("step property violated: %v", res.Out)
	}
	for in, n := range res.In {
		if n != 2*bursts*burst/16 {
			t.Fatalf("%d tokens entered on wire %d: the bursts are not uniform over the input wires", n, in)
		}
	}

	owner := map[tree.Path]string{}
	for _, p := range spec.Partitions {
		for _, c := range p.Components {
			owner[tree.Path(c)] = p.Name
		}
	}
	cut, err := spec.Cut()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tree.CompileRoutes(spec.Width, cut)
	if err != nil {
		t.Fatal(err)
	}
	comps := rt.Components()

	// standing[c][w] is how many of one burst's tokens stand at input wire w
	// of component c when a round starts; each worker that owns such a
	// component is one RPC.
	standing := map[int32][]int{}
	stand := func(at map[int32][]int, h tree.Hop, n int) {
		if at[h.Comp] == nil {
			at[h.Comp] = make([]int, comps[h.Comp].Width)
		}
		at[h.Comp][h.Wire] += n
	}
	for in := 0; in < spec.Width; in++ {
		stand(standing, rt.Entry(in), burst/spec.Width)
	}
	var perRound []int
	for len(standing) > 0 {
		bound := map[string]map[int32][]int{} // by owner: the standing tokens it is sent
		for ci, wires := range standing {
			here := owner[comps[ci].Path]
			if bound[here] == nil {
				bound[here] = map[int32][]int{}
			}
			bound[here][ci] = wires
		}
		perRound = append(perRound, len(bound))
		forwarded := map[int32][]int{}
		for here, wave := range bound {
			// One handler: the message's visits, then wave after wave through
			// the components its worker owns. On a uniform cut all of a
			// handler's tokens through one component reach it in the same wave.
			for len(wave) > 0 {
				next := map[int32][]int{}
				for ci, in := range wave {
					n, width := 0, comps[ci].Width
					for _, k := range in {
						n += k
					}
					if n%width != 0 {
						t.Fatalf("a visit of %v by %d tokens: its outputs depend on its state, pick another burst size", comps[ci], n)
					}
					for out := 0; out < width; out++ {
						switch h := rt.Next(ci, out); {
						case h.Exited():
						case owner[comps[h.Comp].Path] == here:
							stand(next, h, n/width)
						default:
							stand(forwarded, h, n/width)
						}
					}
				}
				wave = next
			}
		}
		standing = forwarded
	}
	// The most crossings on any path through the cut, from the routes alone.
	var crossings func(ci int32) int
	crossings = func(ci int32) int {
		most := 0
		for out := 0; out < comps[ci].Width; out++ {
			if h := rt.Next(ci, out); !h.Exited() {
				n := crossings(h.Comp)
				if owner[comps[h.Comp].Path] != owner[comps[ci].Path] {
					n++
				}
				most = max(most, n)
			}
		}
		return most
	}
	most := 0
	for in := 0; in < spec.Width; in++ {
		most = max(most, crossings(rt.Entry(in).Comp))
	}
	if most == 0 || len(perRound) != 1+most {
		t.Fatalf("the model takes %d rounds %v for paths of at most %d crossings", len(perRound), perRound, most)
	}
	want := uint64(0)
	for _, groups := range perRound {
		want += uint64(2 * bursts * groups)
	}
	var got uint64
	for _, w := range workers {
		_, cs := w.Cluster.NetStats()
		got += cs.Calls
	}
	if got != want {
		t.Fatalf("%d group RPCs for %d bursts, want %d (destination workers per round %v)", got, 2*bursts, want, perRound)
	}
}

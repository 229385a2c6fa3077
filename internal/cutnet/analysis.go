package cutnet

import (
	"sort"

	"repro/internal/flow"
	"repro/internal/tree"
)

// DAG is the component graph of a cut network: vertices are the live
// components, edges follow the wires of the decomposition. Inputs and
// Outputs are the network's input and output layers (Section 1.4).
type DAG struct {
	Comps   []tree.Component
	Index   map[tree.Path]int
	Edges   [][2]int // component index -> component index, deduplicated
	Inputs  []int    // indices of input-layer components
	Outputs []int    // indices of output-layer components
}

// NewDAG extracts the component DAG of the cut rt was compiled from: the
// input layer from rt.Entry, edges and the output layer from rt.Next.
// Vertices are numbered like rt.Components().
func NewDAG(rt *tree.RouteTable) *DAG {
	comps := append([]tree.Component(nil), rt.Components()...)
	d := &DAG{Comps: comps, Index: make(map[tree.Path]int, len(comps))}
	in, out := make([]bool, len(comps)), make([]bool, len(comps))
	for wire := 0; wire < rt.Width(); wire++ {
		in[rt.Entry(wire).Comp] = true
	}
	for i, c := range comps {
		d.Index[c.Path] = i
		seen := make(map[int32]bool)
		for o := 0; o < c.Width; o++ {
			h := rt.Next(int32(i), o)
			if h.Exited() {
				out[i] = true
			} else if !seen[h.Comp] {
				seen[h.Comp] = true
				d.Edges = append(d.Edges, [2]int{i, int(h.Comp)})
			}
		}
	}
	sort.Slice(d.Edges, func(a, b int) bool {
		if d.Edges[a][0] != d.Edges[b][0] {
			return d.Edges[a][0] < d.Edges[b][0]
		}
		return d.Edges[a][1] < d.Edges[b][1]
	})
	for i := range comps {
		if in[i] {
			d.Inputs = append(d.Inputs, i)
		}
		if out[i] {
			d.Outputs = append(d.Outputs, i)
		}
	}
	return d
}

// EffectiveWidth computes Definition 1.1: the maximum number of
// vertex-disjoint paths from the input layer to the output layer.
func (n *Net) EffectiveWidth() (int, error) {
	return NewDAG(n.routes()).EffectiveWidth(), nil
}

// EffectiveDepth computes Definition 1.2: the number of components on the
// longest input-layer-to-output-layer path.
func (n *Net) EffectiveDepth() (int, error) {
	return NewDAG(n.routes()).EffectiveDepth(), nil
}

// EffectiveWidth computes the maximum number of vertex-disjoint
// input-to-output paths of the DAG.
func (d *DAG) EffectiveWidth() int {
	return flow.VertexDisjointPaths(len(d.Comps), d.Edges, d.Inputs, d.Outputs)
}

// EffectiveDepth computes the longest path (in components) from an
// input-layer component to an output-layer component.
func (d *DAG) EffectiveDepth() int {
	nv := len(d.Comps)
	adj := make([][]int, nv)
	indeg := make([]int, nv)
	for _, e := range d.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}
	// Longest path ending at v, starting from an input-layer component.
	best := make([]int, nv)
	for _, v := range d.Inputs {
		best[v] = 1
	}
	queue := make([]int, 0, nv)
	for v := 0; v < nv; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj[v] {
			if best[v] > 0 && best[v]+1 > best[u] {
				best[u] = best[v] + 1
			}
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	depth := 0
	outSet := make(map[int]bool, len(d.Outputs))
	for _, v := range d.Outputs {
		outSet[v] = true
	}
	for v := 0; v < nv; v++ {
		if outSet[v] && best[v] > depth {
			depth = best[v]
		}
	}
	return depth
}

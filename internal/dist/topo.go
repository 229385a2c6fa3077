package dist

import "repro/internal/tree"

// topology is one immutable epoch snapshot: the live incarnations of a cut
// together with that cut's compiled routing, so a token that holds a
// snapshot steps from component to component by integer lookup. The table
// is keyed to the snapshot, not to the cluster, because it is only true of
// this cut; a Split or Merge publishes a new snapshot with a new table.
// live[i] is the incarnation of rt.Components()[i].
//
// done is closed once the next snapshot has been published: a batch whose
// every remaining token was turned away waits on it (see route).
type topology struct {
	rt   *tree.RouteTable
	live []*comp
	done chan struct{}
}

// newTopology compiles the routing of the cut formed by comps.
func newTopology(w int, comps []*comp) (*topology, error) {
	cut := make(tree.Cut, len(comps))
	for _, cm := range comps {
		cut[cm.c.Path] = true
	}
	rt, err := tree.CompileRoutes(w, cut)
	if err != nil {
		return nil, err
	}
	tp := &topology{rt: rt, live: make([]*comp, len(comps)), done: make(chan struct{})}
	for _, cm := range comps {
		i, _ := rt.Index(cm.c.Path)
		tp.live[i] = cm
	}
	return tp, nil
}

// at returns the live incarnation at path p, or nil.
func (tp *topology) at(p tree.Path) *comp {
	if i, ok := tp.rt.Index(p); ok {
		return tp.live[i]
	}
	return nil
}

// publish installs a new snapshot: the current live set without drop, plus
// add. Only reconfigurations call it (serialized by reconfig), so
// copy-and-swap cannot lose concurrent updates. It closes the old snapshot's
// done after the Store, so whoever sees done closed loads the new one.
func (cl *Cluster) publish(drop, add []*comp) error {
	old := cl.topo.Load()
	comps := make([]*comp, 0, len(old.live)-len(drop)+len(add))
	for _, cm := range old.live {
		dropped := false
		for _, d := range drop {
			dropped = dropped || d == cm
		}
		if !dropped {
			comps = append(comps, cm)
		}
	}
	tp, err := newTopology(cl.w, append(comps, add...))
	if err != nil {
		return err
	}
	cl.topo.Store(tp)
	close(old.done)
	return nil
}

package dist

import "repro/internal/tree"

// topology is one immutable epoch snapshot: the live incarnations of a cut
// together with that cut's compiled routing, so a token that holds a
// snapshot steps from component to component by integer lookup. The table
// is keyed to the snapshot, not to the cluster, because it is only true of
// this cut; a Split or Merge publishes a new snapshot with a new table.
// live[i] is the incarnation of rt.Components()[i].
type topology struct {
	rt   *tree.RouteTable
	live []*comp
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
	tp := &topology{rt: rt, live: make([]*comp, len(comps))}
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
// copy-and-swap cannot lose concurrent updates.
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
	return nil
}

// findLive re-enters a token at (path, wire) — a position written down
// against some other cut — into the current snapshot: path itself, a
// descendant after a split, an ancestor after a merge (tree.Locate). This
// is the straggler path: a token released by a frozen component, bounced
// by a dead incarnation, or caught mid-route by a snapshot swap.
// Everything else steps through the snapshot's table directly. It is
// local address resolution, not a message.
func (cl *Cluster) findLive(path tree.Path, wire int) (*topology, tree.Hop, error) {
	tp := cl.topo.Load()
	at, err := tp.rt.Locate(path, wire)
	return tp, at, err
}

// follow moves a token's position from snapshot tp to the current one if a
// reconfiguration has published since tp was loaded, so a token never
// knowingly sends to an incarnation that has been replaced.
func (cl *Cluster) follow(tp *topology, at tree.Hop) (*topology, tree.Hop, error) {
	if cl.topo.Load() == tp {
		return tp, at, nil
	}
	return cl.findLive(tp.live[at.Comp].c.Path, int(at.Wire))
}

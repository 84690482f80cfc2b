package flitsim

import (
	"repro/internal/faults"
	"repro/internal/graph"
)

// Fault handling. When a link goes down, three populations of packets are
// affected and all are funneled through handleFaultPacket at the switch
// they are standing on:
//
//   - packets queued at either side of the failed edge (flushed here);
//   - packets physically crossing the failed channel (swept from the
//     in-flight wheel here; under the reroute policy they restart from the
//     channel's sending switch);
//   - packets elsewhere whose path crosses the failed edge later — these
//     are caught lazily, either when they reach the head of a queue whose
//     next link is down (step 3) or when they land at the tail of a dead
//     link (step 1), so the steady-state cost of fault support is one nil
//     check per cycle.
//
// handleFaultPacket either drops the packet (Policy.Drop) or picks a fresh
// path from the packet's current switch with the run's own routing
// mechanism — so a reroute sees the same congestion signals as an
// injection — and parks it on rerouteQ until its new first queue has
// space. Rerouted packets restart at hop 0/VC 0 on the new path; the
// VC-per-hop deadlock-freedom argument therefore holds per assigned path,
// as for freshly injected packets.

// onFaultEvents reacts to the events Advance just applied: for every edge
// that went down, flush both directed queues and sweep the wheel for
// packets mid-flight on that channel. Up events need no action — the
// revived link simply becomes eligible again (mechanisms see it through
// the epoch-invalidated liveness masks).
func (s *Sim) onFaultEvents(evs []faults.Event) {
	downAny := false
	for _, e := range evs {
		if e.Up {
			continue
		}
		downAny = true
		id := s.g.LinkID(e.U, e.V)
		s.flushLink(id)
		s.flushLink(s.g.ReverseLink(id))
	}
	if downAny {
		s.sweepInflight()
	}
}

// flushLink empties every VC queue of the (freshly failed) directed link,
// handling each packet at the link's sending switch.
func (s *Sim) flushLink(link int32) {
	for vc := int32(0); int(vc) < s.numVC; vc++ {
		for s.vq.Head(link, vc) >= 0 {
			id := s.qpop(link, vc)
			p := &s.pkts[id]
			s.handleFaultPacket(id, p.path[p.hop])
		}
	}
}

// sweepInflight scans the wheel for packets physically crossing a failed
// network channel and pulls them out. A packet with hop >= 1 in flight is
// traversing its path's edge hop-1; packets with hop == 0 are on their
// injection channel, which never fails.
func (s *Sim) sweepInflight() {
	for si := range s.inflight.slots {
		slot := s.inflight.slots[si]
		kept := slot[:0]
		for _, a := range slot {
			p := &s.pkts[a.pkt]
			if p.hop >= 1 && s.faults.LinkDown(s.g.LinkID(p.path[p.hop-1], p.path[p.hop])) {
				s.occ[a.link]--
				s.occVC[int(a.link)*s.numVC+int(a.vc)]--
				// The packet was mid-channel when the link died; under the
				// reroute policy it restarts from the sending switch.
				s.handleFaultPacket(a.pkt, p.path[p.hop-1])
				continue
			}
			kept = append(kept, a)
		}
		s.inflight.slots[si] = kept
	}
}

// handleFaultPacket disposes of a packet caught by a link failure while
// standing at switch cur: drop it, or choose a replacement path from cur
// and park the packet on the reroute queue.
func (s *Sim) handleFaultPacket(id int32, cur graph.NodeID) {
	if s.faults.Policy().Drop {
		s.dropPkt(id)
		return
	}
	p := &s.pkts[id]
	np, _ := s.choosePath(cur, s.topo.SwitchOf(int(p.dstTerm)))
	if np == nil || np.Hops() > s.numVC {
		s.dropPkt(id)
		return
	}
	p.path = np
	p.hop = 0
	s.rerouteQ = append(s.rerouteQ, id)
	s.rerouted++
	if s.tel != nil {
		s.tel.CountFaultReroute()
	}
}

// processReroutes tries to push each waiting rerouted packet into the
// first queue of its replacement path; packets whose replacement died in a
// later fault event choose again, and packets that still do not fit stay
// queued for the next cycle.
func (s *Sim) processReroutes() {
	kept := s.rerouteQ[:0]
	for _, id := range s.rerouteQ {
		p := &s.pkts[id]
		if p.path.Hops() > 0 && s.faults.LinkDown(s.g.LinkID(p.path[0], p.path[1])) {
			dst := s.topo.SwitchOf(int(p.dstTerm))
			np, _ := s.choosePath(p.path[0], dst)
			if np == nil || np.Hops() > s.numVC {
				s.dropPkt(id)
				continue
			}
			p.path = np
		}
		link, vc := s.firstLinkOf(p)
		if !s.spaceIn(link, vc) {
			kept = append(kept, id)
			continue
		}
		s.occ[link]++
		s.occVC[int(link)*s.numVC+int(vc)]++
		s.qpush(link, vc, id)
	}
	s.rerouteQ = kept
}

// dropPkt discards a packet under the fault policy and recycles its slot.
func (s *Sim) dropPkt(id int32) {
	s.dropped++
	if s.tel != nil {
		s.tel.CountFaultDrop()
	}
	s.freePkt(id)
}

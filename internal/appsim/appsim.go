// Package appsim is a cycle-stepped, packet-level application simulator
// standing in for CODES 1.0.0, which the paper extends with Jellyfish
// support for its Tables V and VI. It replays one communication phase of a
// trace-driven workload (every flow's bytes packetized and injected
// concurrently) over the switch network and reports the completion time.
//
// The paper's CODES configuration is reproduced: 20 GB/s links, 1500-byte
// packets, 64-packet buffers, and zero router/NIC/soft delays so that link
// bandwidth and contention dominate — which is why time quantizes cleanly:
// one simulation cycle is the transmission time of one packet on one link
// (1500 B / 20 GB/s = 75 ns), every link moves at most one packet per
// cycle, and switches are store-and-forward. Deadlock freedom uses the
// same VC-per-hop discipline as the flit-level simulator, over the same
// VC queues (internal/vcq) and load estimator (routing.OccupancyEstimator).
package appsim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/traffic"
	"repro/internal/vcq"
	"repro/internal/xrand"
)

// The paper's CODES configuration, the same for every replay.
const (
	DefaultPacketBytes   = 1500
	DefaultLinkBandwidth = 20e9 // bytes per second
	DefaultBufDepth      = 64   // packets per VC
)

// Config parameterizes one workload replay.
type Config struct {
	// Topo is the network.
	Topo *jellyfish.Topology
	// Paths supplies the candidate paths.
	Paths routing.PathProvider
	// Mechanism selects per-packet path choice (see internal/routing for
	// the paper's six mechanisms and ByName). nil defaults to
	// KSP-adaptive, matching the paper's recommendation.
	Mechanism routing.Mechanism
	// Flows is the terminal-level workload (apply the process-to-node
	// mapping before passing it here).
	Flows []traffic.SizedFlow
	// NumVCs is the VC count (0 = routing.VCBudget for the mechanism).
	NumVCs int
	// Seed drives path randomization.
	Seed uint64
	// TrackFlows records per-flow completion cycles in the Result.
	TrackFlows bool
	// Telemetry, when non-nil, receives per-link counters, per-candidate
	// path-choice counters and per-terminal injection-stall counters
	// during the run (Run initializes the collector's link layout). A nil
	// Telemetry costs nothing.
	Telemetry *telemetry.Collector
	// Faults optionally schedules link failures and restorations at
	// absolute cycles. A nil or empty schedule attaches no fault machinery
	// at all, so such runs are bit-identical to runs without the field.
	Faults *faults.Schedule
	// FaultPolicy controls what happens to packets caught by a failure and
	// whether dead path sets are recomputed. The zero value (reroute,
	// repair) is the graceful default.
	FaultPolicy faults.Policy
}

// Validate checks the configuration without running it. Run calls it
// first, so callers only need it to fail fast.
func (cfg Config) Validate() error {
	if cfg.Topo == nil || cfg.Paths == nil {
		return fmt.Errorf("appsim: Topo and Paths are required")
	}
	if cfg.NumVCs < 0 {
		return fmt.Errorf("appsim: NumVCs %d is negative", cfg.NumVCs)
	}
	return nil
}

// Result reports one replay.
type Result struct {
	// Cycles is the cycle count until the last packet ejected.
	Cycles int64
	// Seconds is Cycles converted through the packet transmission time.
	Seconds float64
	// Packets is the total packets delivered.
	Packets int64
	// MaxHops observed.
	MaxHops int
	// FlowCompletions holds, per input flow (same order as Config.Flows),
	// the cycle its last packet was delivered (-1 for flows that sent
	// nothing: self flows or zero bytes). Only populated when
	// Config.TrackFlows is set.
	FlowCompletions []int64
	// Dropped counts packets discarded because of link failures (the drop
	// policy, or no surviving path). Dropped packets count toward flow
	// completion, so a lossy run still drains: Packets + Dropped equals the
	// injected total.
	Dropped int64
	// Rerouted counts packets re-pathed around a failed link.
	Rerouted int64
	// PathRepairs counts pairs whose path set was recomputed on the
	// failed-edge-filtered graph.
	PathRepairs int64
	// FaultEvents counts schedule events (downs and ups) that fired.
	FaultEvents int64
}

// flowState tracks one flow's remaining packets at its source.
type flowState struct {
	dstTerm int32
	dstSw   graph.NodeID
	left    int64 // packets remaining to inject
	inNet   int64 // packets injected but not yet delivered
	flowIdx int32 // index into Config.Flows
}

type pkt struct {
	path    graph.Path
	movedAt int64 // cycle the packet last entered a queue
	hop     int32
	dstTerm int32
	flowIdx int32
	next    int32
}

// Run replays the workload and returns the completion time. An error is
// returned for invalid configuration, or when the replay runs past 100
// times its zero-load lower bound, a generous allowance that still
// catches livelock bugs.
func Run(cfg Config) (Result, error) {
	return run(cfg, 0)
}

// run is Run with the livelock guard's cycle bound set by the caller
// when maxCycles is positive.
func run(cfg Config, maxCycles int64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	mech := cfg.Mechanism
	if mech == nil {
		mech = routing.KSPAdaptive()
	}
	g := cfg.Topo.G
	numTerm := cfg.Topo.NumTerminals()
	numNet := g.NumDirectedLinks()
	numVC := cfg.NumVCs
	if numVC == 0 {
		numVC = routing.VCBudget(graph.ComputeMetrics(g, 0).Diameter, mech.NonMinimal())
	}

	// Per-terminal flow lists and the total packet budget.
	srcFlows := make([][]flowState, numTerm)
	remaining := make([]int64, len(cfg.Flows)) // undelivered packets per flow
	var totalPkts int64
	for fi, f := range cfg.Flows {
		if f.Src < 0 || f.Src >= numTerm || f.Dst < 0 || f.Dst >= numTerm {
			return Result{}, fmt.Errorf("appsim: flow %+v out of range", f)
		}
		if f.Src == f.Dst || f.Bytes <= 0 {
			continue
		}
		n := (f.Bytes + DefaultPacketBytes - 1) / DefaultPacketBytes
		srcFlows[f.Src] = append(srcFlows[f.Src], flowState{
			dstTerm: int32(f.Dst),
			dstSw:   cfg.Topo.SwitchOf(f.Dst),
			left:    n,
			flowIdx: int32(fi),
		})
		remaining[fi] = n
		totalPkts += n
	}
	res := Result{}
	if cfg.TrackFlows {
		res.FlowCompletions = make([]int64, len(cfg.Flows))
		for i := range res.FlowCompletions {
			res.FlowCompletions[i] = -1
		}
	}
	if totalPkts == 0 {
		return res, nil
	}
	if maxCycles <= 0 {
		// Zero-load lower bound: the busiest terminal's serialization time.
		var maxPer int64
		for _, fl := range srcFlows {
			var per int64
			for _, f := range fl {
				per += f.left
			}
			if per > maxPer {
				maxPer = per
			}
		}
		maxCycles = 100 * (maxPer + int64(numVC*20) + 1000)
	}

	tel := cfg.Telemetry
	if tel != nil {
		// Link rows: network links, ejection links, then pseudo rows for
		// the terminals' injection points (which carry only stall and
		// forward counters — injection here has no physical queue).
		links := make([]telemetry.LinkInfo, numNet+2*numTerm)
		for id := int32(0); int(id) < numNet; id++ {
			u, v := g.LinkEndpoints(id)
			links[id] = telemetry.LinkInfo{Kind: telemetry.KindNet, Src: int(u), Dst: int(v)}
		}
		for t := 0; t < numTerm; t++ {
			sw := int(cfg.Topo.SwitchOf(t))
			links[numNet+t] = telemetry.LinkInfo{Kind: telemetry.KindEject, Src: sw, Dst: t}
			links[numNet+numTerm+t] = telemetry.LinkInfo{Kind: telemetry.KindInject, Src: t, Dst: sw}
		}
		tel.Init(telemetry.Config{
			Links:       links,
			QueueCap:    DefaultBufDepth * int64(numVC),
			PathChoices: 32,
		})
	}

	// Fault machinery is only constructed for a non-empty schedule, so
	// fault-free runs take the exact pre-fault code paths (bit-identical
	// results, zero overhead beyond a nil check).
	var fst *faults.State
	if cfg.Faults.Len() > 0 {
		st, err := faults.NewState(g, cfg.Faults, cfg.FaultPolicy, faults.RepairConfigOf(cfg.Paths), numVC)
		if err != nil {
			return Result{}, err
		}
		if tel != nil {
			st.SetTelemetry(tel)
		}
		fst = st
	}

	rng := xrand.New(cfg.Seed)
	vq := vcq.New(numNet+numTerm, numVC) // network links then ejection links
	occ := make([]int32, numNet+numTerm)
	occVC := make([]int32, (numNet+numTerm)*numVC)
	rrFlow := make([]int32, numTerm)
	ejBase := int32(numNet)
	var clock int64

	var pkts []pkt
	free := int32(-1)
	alloc := func() int32 {
		if free >= 0 {
			id := free
			free = pkts[id].next
			return id
		}
		pkts = append(pkts, pkt{})
		return int32(len(pkts) - 1)
	}
	release := func(id int32) {
		pkts[id] = pkt{next: free}
		free = id
	}

	space := func(link, vc int32) bool {
		return occVC[int(link)*numVC+int(vc)] < DefaultBufDepth
	}
	// enqueue and dequeue move a packet into and out of (link, vc), taking
	// and releasing its buffer slot. Because router/NIC delays are zero,
	// channel traversal is immediate: a packet sent on a link this cycle
	// enters the next queue this cycle but cannot be forwarded again until
	// the next cycle (store and forward), so enqueue stamps the cycle into
	// the packet for that check.
	enqueue := func(link, vc, id int32) {
		occ[link]++
		occVC[int(link)*numVC+int(vc)]++
		vq.Push(link, vc, id)
		pkts[id].movedAt = clock
	}
	dequeue := func(link, vc int32) int32 {
		occ[link]--
		occVC[int(link)*numVC+int(vc)]--
		return vq.Pop(link, vc)
	}
	// The routing engine sees appsim's congestion through the first-link
	// queue occupancy and its path state through a View over the path DB
	// and the fault tracker; choose wraps the per-run mechanism state.
	// A nil path means no candidate survives the current failures (or the
	// pair has no paths at all); the caller decides between erroring and
	// dropping.
	est := routing.NewOccupancyEstimator(g, occ)
	view := routing.View{
		Provider: cfg.Paths,
		Faults:   fst,
		NumNodes: g.NumNodes(),
		MaxHops:  numVC,
	}
	mechState := mech.NewState()
	choose := func(srcSw, dstSw graph.NodeID) (graph.Path, int) {
		return mechState.Choose(&view, srcSw, dstSw, est, rng)
	}

	var delivered int64
	var rerouteQ []int32 // packets awaiting space on their replacement path

	// dropFlowPacket retires one packet of flow fi without delivering it:
	// the flow's completion accounting advances so the run still drains.
	dropFlowPacket := func(fi int32) {
		remaining[fi]--
		if remaining[fi] == 0 && res.FlowCompletions != nil {
			res.FlowCompletions[fi] = clock
		}
		res.Dropped++
		if tel != nil {
			tel.CountFaultDrop()
		}
	}
	dropPkt := func(id int32) {
		dropFlowPacket(pkts[id].flowIdx)
		release(id)
	}
	// handleFault disposes of a packet caught by a link failure while
	// standing at switch cur: drop it, or choose a replacement path from
	// cur (through the same mechanism as injection, so reroutes see the
	// same congestion signals) and park it on the reroute queue.
	handleFault := func(id int32, cur graph.NodeID) {
		if fst.Policy().Drop {
			dropPkt(id)
			return
		}
		p := &pkts[id]
		np, _ := choose(cur, cfg.Topo.SwitchOf(int(p.dstTerm)))
		if np == nil || np.Hops() > numVC {
			dropPkt(id)
			return
		}
		p.path = np
		p.hop = 0
		rerouteQ = append(rerouteQ, id)
		res.Rerouted++
		if tel != nil {
			tel.CountFaultReroute()
		}
	}
	// flushDown reacts to freshly applied fault events: every packet queued
	// on either direction of a failed edge is pulled out and handled at its
	// current switch. Packets whose path crosses a failed edge further on
	// are caught lazily when they reach it (the forwarding loop).
	flushDown := func(evs []faults.Event) {
		for _, e := range evs {
			if e.Up {
				continue
			}
			down := g.LinkID(e.U, e.V)
			for _, link := range [2]int32{down, g.ReverseLink(down)} {
				for vc := int32(0); int(vc) < numVC; vc++ {
					for vq.Head(link, vc) >= 0 {
						id := dequeue(link, vc)
						p := &pkts[id]
						handleFault(id, p.path[p.hop])
					}
				}
			}
		}
	}
	// processReroutes pushes waiting rerouted packets into the first queue
	// of their replacement path; packets whose replacement died in a later
	// event choose again, and packets that do not fit wait another cycle.
	processReroutes := func() {
		kept := rerouteQ[:0]
		for _, id := range rerouteQ {
			p := &pkts[id]
			if p.path.Hops() > 0 && fst.LinkDown(g.LinkID(p.path[0], p.path[1])) {
				np, _ := choose(p.path[0], cfg.Topo.SwitchOf(int(p.dstTerm)))
				if np == nil || np.Hops() > numVC {
					dropPkt(id)
					continue
				}
				p.path = np
			}
			link := ejBase + p.dstTerm
			if p.path.Hops() > 0 {
				link = est.FirstLink(p.path)
			}
			if !space(link, 0) {
				kept = append(kept, id)
				continue
			}
			enqueue(link, 0, id)
		}
		rerouteQ = kept
	}

	var activeTerms []int32
	for t := 0; t < numTerm; t++ {
		if len(srcFlows[t]) > 0 {
			activeTerms = append(activeTerms, int32(t))
		}
	}

	for delivered+res.Dropped < totalPkts {
		if clock >= maxCycles {
			return res, fmt.Errorf("appsim: exceeded %d cycles with %d/%d packets delivered",
				maxCycles, delivered, totalPkts)
		}

		// 0. Apply due fault events.
		if fst != nil {
			if evs := fst.Advance(clock); evs != nil {
				flushDown(evs)
			}
		}

		// 1. Ejection links drain one packet per cycle.
		for term := int32(0); int(term) < numTerm; term++ {
			link := ejBase + term
			if vc, id := vq.Pick(link); vc >= 0 {
				if pkts[id].movedAt == clock {
					continue // store-and-forward: arrived this cycle
				}
				dequeue(link, vc)
				if tel != nil {
					tel.CountForward(link)
				}
				if h := pkts[id].path.Hops(); h > res.MaxHops {
					res.MaxHops = h
				}
				fi := pkts[id].flowIdx
				remaining[fi]--
				if remaining[fi] == 0 && res.FlowCompletions != nil {
					res.FlowCompletions[fi] = clock
				}
				release(id)
				delivered++
			}
		}

		// 2. Network links forward.
		for link := int32(0); link < int32(numNet); link++ {
			if fst != nil && fst.LinkDown(link) {
				continue
			}
			vc, id := vq.Pick(link)
			if vc < 0 {
				continue
			}
			p := &pkts[id]
			if p.movedAt == clock {
				continue
			}
			var nextLink, nextVC int32
			if int(p.hop)+1 >= p.path.Hops() {
				nextLink, nextVC = ejBase+p.dstTerm, 0
			} else {
				nextLink = g.LinkID(p.path[p.hop+1], p.path[p.hop+2])
				nextVC = p.hop + 1
			}
			if fst != nil && fst.LinkDown(nextLink) {
				// The packet's next hop died while it was queued here:
				// pull it and reroute/drop from its current switch.
				dequeue(link, vc)
				handleFault(id, p.path[p.hop])
				continue
			}
			if !space(nextLink, nextVC) {
				if tel != nil {
					tel.CountStall(link)
				}
				continue
			}
			dequeue(link, vc)
			if tel != nil {
				tel.CountForward(link)
			}
			p.hop++
			enqueue(nextLink, nextVC, id)
		}

		// 2b. Re-inject packets rerouted around failures.
		if len(rerouteQ) > 0 {
			processReroutes()
		}

		// 3. Injection: each terminal sends one packet per cycle,
		// round-robin over its live flows (MPI sends progress
		// concurrently).
		for _, term := range activeTerms {
			flows := srcFlows[term]
			if len(flows) == 0 {
				continue
			}
			srcSw := cfg.Topo.SwitchOf(int(term))
			start := int(rrFlow[term]) % len(flows)
			sent := false
			for i := 0; i < len(flows); i++ {
				fi := (start + i) % len(flows)
				f := &flows[fi]
				path, choiceIdx := choose(srcSw, f.dstSw)
				if path == nil {
					if fst == nil {
						return res, fmt.Errorf("appsim: no path %d->%d", srcSw, f.dstSw)
					}
					// No surviving path for this flow: drop one packet
					// per attempt so the run drains deterministically
					// instead of spinning into the livelock guard.
					dropFlowPacket(f.flowIdx)
				} else {
					if path.Hops() > numVC {
						return res, fmt.Errorf("appsim: path with %d hops exceeds %d VCs", path.Hops(), numVC)
					}
					link := ejBase + f.dstTerm
					if path.Hops() > 0 {
						link = est.FirstLink(path)
					}
					if !space(link, 0) {
						continue // head-of-line across flows: try the next flow
					}
					id := alloc()
					pkts[id] = pkt{path: path, dstTerm: f.dstTerm, flowIdx: f.flowIdx, next: -1}
					enqueue(link, 0, id)
					if tel != nil {
						tel.CountForward(int32(numNet + numTerm + int(term)))
						if choiceIdx >= 0 {
							tel.CountChoice(choiceIdx)
						}
					}
				}
				sent = true
				f.left--
				if f.left == 0 {
					flows[fi] = flows[len(flows)-1]
					srcFlows[term] = flows[:len(flows)-1]
				}
				rrFlow[term] = int32(fi + 1)
				break
			}
			if tel != nil && !sent {
				// Every live flow was blocked at its first link: the
				// terminal stalled this cycle.
				tel.CountStall(int32(numNet + numTerm + int(term)))
			}
		}
		// Compact the active terminal list occasionally.
		if clock%1024 == 0 {
			live := activeTerms[:0]
			for _, term := range activeTerms {
				if len(srcFlows[term]) > 0 {
					live = append(live, term)
				}
			}
			activeTerms = live
			if tel != nil {
				tel.Snapshot(clock)
			}
		}
		if tel != nil {
			tel.SampleQueues(occ)
		}
		clock++
	}
	res.Packets = delivered
	if tel != nil {
		tel.Snapshot(clock)
	}

	res.Cycles = clock
	res.Seconds = float64(clock) * float64(DefaultPacketBytes) / DefaultLinkBandwidth
	if fst != nil {
		downs, ups, repairs := fst.Counters()
		res.FaultEvents = downs + ups
		res.PathRepairs = repairs
	}
	return res, nil
}

// Package flitsim is a cycle-level interconnection network simulator in the
// mold of Booksim 2.0, which the paper extends with Jellyfish support for
// its Figures 7-13. It simulates single-flit packets over source-routed
// multi-path routing with:
//
//   - output-queued switches with per-virtual-channel FIFOs and
//     credit-based backpressure (a packet leaves a queue only when the
//     downstream queue has a free slot, reserved at departure);
//   - deadlock freedom by VC-per-hop: a packet at hop h occupies VC h, and
//     the VC count covers the longest admissible path, so the channel
//     dependency graph is acyclic;
//   - the paper's 10-cycle channels and 32-flit VC buffers;
//   - Bernoulli packet injection per terminal at a configurable offered
//     load, with destinations drawn from a traffic.Sampler;
//   - the paper's measurement protocol: a 500-cycle warmup, then 10
//     samples of 500 cycles; the network counts as saturated when a
//     sample's average packet latency exceeds 500 cycles.
//
// The paper configures Booksim with a 2.0 router speedup "because our main
// focus is on evaluating routing performance, rather than flow control and
// router delays"; accordingly this simulator does not model crossbar or
// allocator contention at all — every output arbitrates independently —
// which is the same idealization taken to its limit. Link bandwidth (one
// flit per cycle per direction) and finite buffering, the resources that
// actually differentiate routing schemes, are modeled exactly.
package flitsim

import (
	"fmt"
	"math/bits"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/traffic"
	"repro/internal/vcq"
	"repro/internal/xrand"
)

// The paper's Booksim configuration, the same for every run.
const (
	channelLatency  = 10             // switch-to-switch channel delay, cycles
	terminalLatency = 1              // injection and ejection channel delay, cycles
	bufDepth        = 32             // per-VC buffer depth, flits
	satLatency      = 500            // per-sample average latency that marks saturation, cycles
	latencyCap      = 4 * satLatency // top bucket of the latency histogram, cycles
)

// The paper's measurement protocol: Run warms up for WarmupCycles, then
// measures NumSamples windows of SampleCycles each.
const (
	WarmupCycles = 500
	SampleCycles = 500
	NumSamples   = 10
)

// Config parameterizes one simulation run.
type Config struct {
	// Topo is the network.
	Topo *jellyfish.Topology
	// Paths supplies the per-pair candidate paths.
	Paths routing.PathProvider
	// Mechanism selects how a path is chosen per packet (see
	// internal/routing for the paper's six mechanisms and ByName).
	Mechanism routing.Mechanism
	// Traffic draws per-packet destinations.
	Traffic traffic.Sampler
	// InjectionRate is the offered load: the per-cycle probability that a
	// terminal injects a packet, in [0, 1].
	InjectionRate float64
	// Seed drives all randomness in the run.
	Seed uint64

	// NumVCs is the virtual channel count; 0 derives it from the longest
	// path the configured mechanism can use (routing.VCBudget).
	NumVCs int

	// Telemetry, when non-nil, receives per-link counters, queue-depth
	// samples, a latency histogram and per-sample window snapshots during
	// the run (the Sim initializes the collector's link layout). A nil
	// Telemetry costs nothing: every hook sits behind a nil check and the
	// simulation allocates no instrumentation state.
	Telemetry *telemetry.Collector

	// Faults is an optional schedule of timed link-down/link-up events
	// applied while the run is in flight; FaultPolicy selects what happens
	// to traffic caught on a failed link (see internal/faults). A nil or
	// empty schedule attaches no fault machinery at all, so the run is
	// bit-identical to one without these fields.
	Faults      *faults.Schedule
	FaultPolicy faults.Policy

	// SaturationLatencyOnly restricts saturation detection to the paper's
	// latency threshold. By default a run also counts as saturated when
	// accepted throughput falls below 90% of offered load, which catches
	// regimes where a starving minority of flows never pushes the average
	// latency of delivered packets over the threshold.
	SaturationLatencyOnly bool
}

// Result reports one run.
type Result struct {
	// AvgLatency is the mean packet latency (injection to ejection, in
	// cycles) over all packets delivered during the measurement window.
	AvgLatency float64
	// SampleLatencies holds the per-sample average latencies.
	SampleLatencies []float64
	// Saturated reports whether any sample's average latency exceeded 500
	// cycles (or a sample delivered nothing while traffic was offered).
	Saturated bool
	// DeliveredRate is packets delivered per terminal per cycle during
	// measurement — the accepted throughput.
	DeliveredRate float64
	// P50, P95 and P99 are latency percentiles over packets delivered
	// during measurement (0 when nothing was delivered). Latencies above
	// the histogram cap (2000 cycles) land in the top bucket, so deep
	// saturation reads as "at least the cap".
	P50, P95, P99 float64
	// Injected and Delivered count packets over the whole run (including
	// warmup). Dropped counts packets discarded because of link failures
	// (always 0 without a fault schedule: the network is lossless).
	Injected, Delivered, Dropped int64
	// InFlight is the number of packets still in the network when the run
	// ended (conservation: Injected == Delivered + Dropped + InFlight).
	InFlight int64
	// Rerouted counts packets requeued onto a surviving path after a link
	// failure; PathRepairs counts per-pair path-set recomputations on the
	// failed-edge-filtered graph; FaultEvents counts applied link-down and
	// link-up events.
	Rerouted, PathRepairs, FaultEvents int64
	// SampleDelivered holds the per-sample delivered packet counts during
	// measurement — the time series fault experiments read to see
	// throughput dip and recover around a failure.
	SampleDelivered []int64
	// MaxHops observed over delivered packets.
	MaxHops int
	// AvgHops is the mean switch-level hop count over packets delivered
	// during measurement.
	AvgHops float64
}

// packet is a single-flit packet.
type packet struct {
	path    graph.Path // switch-level path; len 1 for same-switch traffic
	hop     int32      // next path edge index to traverse
	dstTerm int32
	birth   int64 // cycle the packet entered the source queue
	next    int32 // freelist linkage
}

// Sim is one simulation instance. It is single-threaded; run many Sims in
// parallel for sweeps.
type Sim struct {
	cfg   Config
	topo  *jellyfish.Topology
	g     *graph.Graph
	rng   *xrand.RNG
	mech  routing.State
	view  routing.View
	est   *routing.OccupancyEstimator // prices candidates by occ
	numVC int

	// warmup and samples are the measurement protocol Run follows:
	// WarmupCycles and NumSamples, shortened only by tests.
	warmup, samples int

	// Link indexing: [0, L) network links (graph link ids), then
	// [L, L+T) injection links, then [L+T, L+2T) ejection links.
	numNet   int
	numTerm  int
	vq       vcq.Queues // per-(link, vc) FIFOs with round-robin VC arbitration
	occ      []int32    // committed occupancy per link (queued + reserved)
	occVC    []int32    // committed occupancy per (link, vc)
	inflight wheel      // packets on channels, by arrival cycle

	// Sparse hot-loop state: per-cycle cost is proportional to occupancy,
	// not topology size. qlen counts queued (not reserved) packets per
	// link; active is a bitmap over links with qlen > 0, scanned ascending
	// so arbitration order matches a full link scan; srcActive is the same
	// bitmap idea over terminals with a nonempty source queue. All three
	// are maintained exclusively by qpush/qpop/srcPush/srcPop.
	qlen      []int32
	active    []uint64
	srcActive []uint64

	pkts  []packet
	free  int32 // packet freelist head (-1 none)
	clock int64
	tel   *telemetry.Collector // nil when telemetry is off

	// faults is nil unless a non-empty schedule was configured, so the
	// no-fault hot path pays one nil check per cycle and nothing else.
	faults   *faults.State
	rerouteQ []int32 // packets awaiting re-insertion after a reroute

	injected, delivered, deliveredMeas int64
	dropped, rerouted                  int64
	latSumMeas, hopSumMeas             int64
	latHist                            []int64 // per-cycle latency histogram (measured packets)
	maxHops                            int

	srcQueue []vcq.FIFO // per-terminal infinite source queues (single VC)
}

// wheel schedules in-flight packets by absolute arrival cycle.
type wheel struct {
	slots [][]arrival
	// spare is the backing array most recently emptied by take, handed to
	// the next taken slot so steady-state scheduling allocates nothing.
	// The swap matters for correctness, not just allocation: a schedule at
	// exactly now+len(slots) aliases onto the slot index take just
	// returned, so that slot must get a backing array different from the
	// slice the caller is still iterating.
	spare []arrival
	now   int64 // cycle of the last take; -1 before the first
}

type arrival struct {
	pkt  int32
	link int32
	vc   int32
}

func newWheel(horizon int) wheel {
	return wheel{slots: make([][]arrival, horizon+1), now: -1}
}

// schedule enqueues an arrival for cycle at. A slot is reused every
// len(slots) cycles, so an arrival is representable only inside the window
// (now, now+len(slots)]: anything earlier was already taken this cycle and
// anything later would silently alias onto a nearer slot and fire at the
// wrong time. Both are programming errors and panic.
func (w *wheel) schedule(at int64, a arrival) {
	if at <= w.now || at > w.now+int64(len(w.slots)) {
		panic(fmt.Sprintf("flitsim: wheel schedule at cycle %d outside window (%d, %d] (horizon %d slots)",
			at, w.now, w.now+int64(len(w.slots)), len(w.slots)))
	}
	idx := int(at % int64(len(w.slots)))
	w.slots[idx] = append(w.slots[idx], a)
}

func (w *wheel) take(now int64) []arrival {
	w.now = now
	idx := int(now % int64(len(w.slots)))
	out := w.slots[idx]
	w.slots[idx] = w.spare[:0]
	w.spare = out
	return out
}

// Validate reports the first configuration error. A zero NumVCs is fine
// (NewSim derives it); a negative one is not.
func (c Config) Validate() error {
	switch {
	case c.Topo == nil:
		return fmt.Errorf("flitsim: Topo is required")
	case c.Paths == nil:
		return fmt.Errorf("flitsim: Paths is required")
	case c.Traffic == nil:
		return fmt.Errorf("flitsim: Traffic is required")
	case c.Mechanism == nil:
		return fmt.Errorf("flitsim: Mechanism is required")
	case !(c.InjectionRate >= 0 && c.InjectionRate <= 1): // NaN fails too
		return fmt.Errorf("flitsim: injection rate %v out of [0,1]", c.InjectionRate)
	case c.NumVCs < 0:
		return fmt.Errorf("flitsim: negative VC count %d", c.NumVCs)
	}
	return nil
}

// New creates a simulator, panicking on invalid configuration. Prefer
// NewSim in code with a caller to report to; New suits tests and sweeps
// over pre-validated configurations.
func New(cfg Config) *Sim {
	s, err := NewSim(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSim creates a simulator, returning an error on invalid
// configuration or a fault schedule referencing non-existent links.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:     cfg,
		topo:    cfg.Topo,
		g:       cfg.Topo.G,
		rng:     xrand.New(cfg.Seed),
		numNet:  cfg.Topo.G.NumDirectedLinks(),
		numTerm: cfg.Topo.NumTerminals(),
		warmup:  WarmupCycles,
		samples: NumSamples,
	}
	s.numVC = cfg.NumVCs
	if s.numVC == 0 {
		s.numVC = routing.VCBudget(graph.ComputeMetrics(s.g, 0).Diameter, cfg.Mechanism.NonMinimal())
	}
	nLinks := s.numNet + 2*s.numTerm
	s.vq = vcq.New(nLinks, s.numVC)
	s.occ = make([]int32, nLinks)
	s.occVC = make([]int32, nLinks*s.numVC)
	s.est = routing.NewOccupancyEstimator(s.g, s.occ)
	s.qlen = make([]int32, nLinks)
	s.active = make([]uint64, (nLinks+63)/64)
	s.srcActive = make([]uint64, (s.numTerm+63)/64)
	s.inflight = newWheel(max(channelLatency, terminalLatency) + 1)
	s.free = -1
	s.latHist = make([]int64, latencyCap+1)
	s.srcQueue = make([]vcq.FIFO, s.numTerm)
	s.mech = cfg.Mechanism.NewState()
	if cfg.Telemetry != nil {
		s.tel = cfg.Telemetry
		links := make([]telemetry.LinkInfo, nLinks)
		for id := int32(0); int(id) < s.numNet; id++ {
			u, v := s.g.LinkEndpoints(id)
			links[id] = telemetry.LinkInfo{Kind: telemetry.KindNet, Src: int(u), Dst: int(v)}
		}
		for term := 0; term < s.numTerm; term++ {
			sw := int(s.topo.SwitchOf(term))
			links[s.injLink(int32(term))] = telemetry.LinkInfo{Kind: telemetry.KindInject, Src: term, Dst: sw}
			links[s.ejLink(int32(term))] = telemetry.LinkInfo{Kind: telemetry.KindEject, Src: sw, Dst: term}
		}
		s.tel.Init(telemetry.Config{
			Links:       links,
			LatencyCap:  latencyCap,
			QueueCap:    bufDepth * int64(s.numVC),
			PathChoices: 32,
		})
	}
	if cfg.Faults.Len() > 0 {
		st, err := faults.NewState(s.g, cfg.Faults, cfg.FaultPolicy, faults.RepairConfigOf(cfg.Paths), s.numVC)
		if err != nil {
			return nil, err
		}
		st.SetTelemetry(s.tel)
		s.faults = st
	}
	s.view = routing.View{
		Provider: cfg.Paths,
		Faults:   s.faults,
		NumNodes: s.g.NumNodes(),
		MaxHops:  s.numVC,
	}
	return s, nil
}

// Telemetry returns the attached collector (nil when telemetry is off).
func (s *Sim) Telemetry() *telemetry.Collector { return s.tel }

func (s *Sim) injLink(term int32) int32 { return int32(s.numNet) + term }
func (s *Sim) ejLink(term int32) int32  { return int32(s.numNet+s.numTerm) + term }

// choosePath runs the configured mechanism for one packet from switch src
// to switch dst, pricing candidates by committed credit occupancy, and
// returns the chosen path and its candidate index (-1 for same-switch or
// composed paths; nil when faults severed every candidate).
func (s *Sim) choosePath(src, dst graph.NodeID) (graph.Path, int) {
	return s.mech.Choose(&s.view, src, dst, s.est, s.rng)
}

func (s *Sim) allocPkt() int32 {
	if s.free >= 0 {
		id := s.free
		s.free = s.pkts[id].next
		return id
	}
	s.pkts = append(s.pkts, packet{})
	return int32(len(s.pkts) - 1)
}

func (s *Sim) freePkt(id int32) {
	s.pkts[id] = packet{next: s.free}
	s.free = id
}

// qpush appends a packet to (link, vc), maintaining the active-link
// bitmap. Committed occupancy (occ/occVC) is not touched: the slot was
// reserved when the packet departed its previous queue.
func (s *Sim) qpush(link, vc, id int32) {
	s.vq.Push(link, vc, id)
	s.qlen[link]++
	if s.qlen[link] == 1 {
		s.active[link>>6] |= 1 << (uint(link) & 63)
	}
}

// qpop removes the head of (link, vc) and releases its committed slot,
// maintaining the active-link bitmap.
func (s *Sim) qpop(link, vc int32) int32 {
	id := s.vq.Pop(link, vc)
	s.qlen[link]--
	if s.qlen[link] == 0 {
		s.active[link>>6] &^= 1 << (uint(link) & 63)
	}
	s.occ[link]--
	s.occVC[int(link)*s.numVC+int(vc)]--
	return id
}

func (s *Sim) srcPush(term, id int32) {
	q := &s.srcQueue[term]
	if q.Len() == 0 {
		s.srcActive[term>>6] |= 1 << (uint(term) & 63)
	}
	q.Push(id)
}

func (s *Sim) srcPop(term int32) int32 {
	q := &s.srcQueue[term]
	id := q.Pop()
	if q.Len() == 0 {
		s.srcActive[term>>6] &^= 1 << (uint(term) & 63)
	}
	return id
}

// step advances the simulation by one cycle. measuring toggles stats
// collection for delivered packets. The cycle's phases (faults, channel
// arrivals, ejection, network forwarding, reroutes, injection, generation)
// live in one method each.
func (s *Sim) step(measuring bool, sampleLatSum *int64, sampleCount *int64) {
	// 0. Apply fault events due this cycle (flushes queues on freshly
	// failed links and sweeps the in-flight wheel).
	if s.faults != nil {
		if evs := s.faults.Advance(s.clock); evs != nil {
			s.onFaultEvents(evs)
		}
	}
	s.deliverArrivals()
	s.drainEjections(measuring, sampleLatSum, sampleCount)
	s.forwardNetwork()
	// 3b. Re-insert rerouted packets waiting for buffer space on their
	// replacement paths.
	if len(s.rerouteQ) > 0 {
		s.processReroutes()
	}
	s.injectSources()
	// 5. Generate new packets — after injection, so a packet generated
	// this cycle enters the network no earlier than the next one.
	s.generateBernoulli()

	if s.tel != nil {
		s.tel.SampleQueues(s.occ)
	}
	s.clock++
}

// deliverArrivals is phase 1: deliver in-flight packets into their
// reserved queue slots. A packet can land at the tail of a link that
// failed while it was in flight toward it; it is then standing at the
// link's sending switch and reroutes (or drops) from there.
func (s *Sim) deliverArrivals() {
	for _, a := range s.inflight.take(s.clock) {
		if s.faults != nil && s.faults.LinkDown(a.link) {
			p := &s.pkts[a.pkt]
			s.occ[a.link]--
			s.occVC[int(a.link)*s.numVC+int(a.vc)]--
			s.handleFaultPacket(a.pkt, p.path[p.hop])
			continue
		}
		s.qpush(a.link, a.vc, a.pkt)
	}
}

// drainEjections is phase 2: ejection links drain one packet per cycle to
// the terminal sink. Only links in the active set are visited (ejection
// links occupy the bitmap range [numNet+numTerm, numNet+2·numTerm)); the
// ascending bit scan matches the old full terminal scan's drain order.
// Queues only shrink during this step, so a live scan cannot miss a link.
func (s *Sim) drainEjections(measuring bool, sampleLatSum, sampleCount *int64) {
	if s.numTerm == 0 {
		return
	}
	lo, hi := s.numNet+s.numTerm, s.numNet+2*s.numTerm
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		m := s.active[w]
		if base := w << 6; base < lo {
			m &= ^uint64(0) << uint(lo-base)
		}
		if top := (w + 1) << 6; top > hi {
			m &= ^uint64(0) >> uint(top-hi)
		}
		for ; m != 0; m &= m - 1 {
			link := int32(w<<6 + bits.TrailingZeros64(m))
			vc, _ := s.vq.Pick(link)
			if vc < 0 {
				continue
			}
			id := s.qpop(link, vc)
			// Latency includes the ejection channel traversal.
			lat := s.clock - s.pkts[id].birth + terminalLatency
			h := s.pkts[id].path.Hops()
			if h > s.maxHops {
				s.maxHops = h
			}
			s.delivered++
			if s.tel != nil {
				s.tel.CountForward(link)
				if measuring {
					s.tel.ObserveLatency(lat)
				}
			}
			if measuring {
				s.deliveredMeas++
				s.latSumMeas += lat
				s.hopSumMeas += int64(h)
				bucket := lat
				if bucket >= int64(len(s.latHist)) {
					bucket = int64(len(s.latHist)) - 1
				}
				s.latHist[bucket]++
				*sampleLatSum += lat
				*sampleCount++
			}
			s.freePkt(id)
		}
	}
}

// forwardNetwork is phase 3: each network link sends its arbitration
// winner if the packet's next queue has space. Same active-set scan as
// phase 2 over the range [0, numNet); empty links never even get looked
// at, which is what makes sub-saturation stepping occupancy-proportional.
func (s *Sim) forwardNetwork() {
	for w := 0; w<<6 < s.numNet; w++ {
		m := s.active[w]
		if top := (w + 1) << 6; top > s.numNet {
			m &= ^uint64(0) >> uint(top-s.numNet)
		}
		for ; m != 0; m &= m - 1 {
			link := int32(w<<6 + bits.TrailingZeros64(m))
			if s.faults != nil && s.faults.LinkDown(link) {
				continue
			}
			vc, id := s.vq.Pick(link)
			if vc < 0 {
				continue
			}
			p := &s.pkts[id]
			nextLink, nextVC := s.nextHopOf(p)
			if s.faults != nil && s.faults.LinkDown(nextLink) {
				// The packet's next edge died after it was queued here: pull
				// it out and reroute (or drop) from its current switch.
				s.qpop(link, vc)
				s.handleFaultPacket(id, p.path[p.hop])
				continue
			}
			hasSpace := s.spaceIn(nextLink, nextVC)
			if s.tel != nil {
				if hasSpace {
					s.tel.CountForward(link)
				} else {
					s.tel.CountStall(link)
				}
			}
			if hasSpace {
				s.qpop(link, vc)
				s.occ[nextLink]++
				s.occVC[int(nextLink)*s.numVC+int(nextVC)]++
				p.hop++
				// The packet now traverses this network channel.
				s.inflight.schedule(s.clock+channelLatency,
					arrival{pkt: id, link: nextLink, vc: nextVC})
			}
		}
	}
}

// injectSources is phase 4: move the head of each terminal's source queue
// into the network. The path is chosen here — at network entry — so
// adaptive mechanisms see current queue state. Only terminals with a
// nonempty source queue are visited, scanned ascending like the old full
// terminal loop; generation (phase 5) runs after this phase, so the
// bitmap only loses bits while we scan it.
func (s *Sim) injectSources() {
	for w := range s.srcActive {
		m := s.srcActive[w]
		for ; m != 0; m &= m - 1 {
			term := int32(w<<6 + bits.TrailingZeros64(m))
			id := s.srcQueue[term].Peek()
			p := &s.pkts[id]
			if p.path != nil && s.faults != nil && p.path.Hops() > 0 &&
				s.faults.LinkDown(s.g.LinkID(p.path[0], p.path[1])) {
				// The path chosen while waiting for buffer space starts on a
				// link that has since failed; choose again.
				p.path = nil
			}
			if p.path == nil {
				src := s.topo.SwitchOf(int(term))
				dst := s.topo.SwitchOf(int(p.dstTerm))
				path, choice := s.choosePath(src, dst)
				if path == nil {
					if s.faults != nil {
						// Faults severed every candidate and repair found no
						// route; the packet cannot enter the network.
						s.srcPop(term)
						s.dropPkt(id)
						continue
					}
					panic(fmt.Sprintf("flitsim: no path %d->%d", src, dst))
				}
				if path.Hops() > s.numVC {
					panic(fmt.Sprintf("flitsim: path with %d hops exceeds %d VCs", path.Hops(), s.numVC))
				}
				p.path = path
				if s.tel != nil && choice >= 0 {
					s.tel.CountChoice(choice)
				}
			}
			nextLink, nextVC := s.firstLinkOf(p)
			if !s.spaceIn(nextLink, nextVC) {
				if s.tel != nil {
					s.tel.CountStall(s.injLink(term))
				}
				continue
			}
			s.srcPop(term)
			if s.tel != nil {
				s.tel.CountForward(s.injLink(term))
			}
			s.occ[nextLink]++
			s.occVC[int(nextLink)*s.numVC+int(nextVC)]++
			s.inflight.schedule(s.clock+terminalLatency,
				arrival{pkt: id, link: nextLink, vc: nextVC})
		}
	}
}

// generateBernoulli is phase 5. This loop deliberately stays a full scan:
// every terminal draws from the RNG every cycle regardless of load, so
// seeds reproduce the exact same traffic as before the sparse rewrite.
func (s *Sim) generateBernoulli() {
	if s.cfg.InjectionRate <= 0 {
		return
	}
	for term := 0; term < s.numTerm; term++ {
		if s.rng.Float64() >= s.cfg.InjectionRate {
			continue
		}
		dst, ok := s.cfg.Traffic.Dest(term, s.rng)
		if !ok {
			continue
		}
		id := s.allocPkt()
		s.pkts[id] = packet{hop: 0, dstTerm: int32(dst), birth: s.clock, next: -1}
		s.srcPush(int32(term), id)
		s.injected++
	}
}

// firstLinkOf returns the first network link (or the ejection link for
// zero-hop paths) a packet starting its path enters, with its VC: at
// injection, and again after a fault reroute.
func (s *Sim) firstLinkOf(p *packet) (int32, int32) {
	if p.path.Hops() == 0 {
		return s.ejLink(p.dstTerm), 0
	}
	return s.g.LinkID(p.path[0], p.path[1]), 0
}

// nextHopOf returns the queue the packet enters after traversing its
// current link. p.hop indexes the edge the packet is currently queued for.
// Network hop h occupies VC h; the ejection queue (a pure sink) always
// uses VC 0, so VC demand equals the maximum path hop count. The link id
// comes from graph.LinkID's constant-time table.
func (s *Sim) nextHopOf(p *packet) (int32, int32) {
	nextEdge := int(p.hop) + 1
	if nextEdge >= p.path.Hops() {
		return s.ejLink(p.dstTerm), 0
	}
	return s.g.LinkID(p.path[nextEdge], p.path[nextEdge+1]), p.hop + 1
}

// spaceIn reports whether (link, vc) can accept one more committed packet:
// its queued plus reserved in-flight count is below the buffer depth.
func (s *Sim) spaceIn(link, vc int32) bool {
	return s.occVC[int(link)*s.numVC+int(vc)] < bufDepth
}

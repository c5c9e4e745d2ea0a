// Package ring implements the NUMAchine interconnect: unidirectional
// bit-parallel slotted rings arranged in a two-level hierarchy, the local
// ring interfaces that connect stations to their ring, and the inter-ring
// interfaces that switch packets between levels.
//
// Routing follows §2.2 of the paper: a packet whose routing mask names
// rings other than the one it is on ascends; once at the highest level it
// needs, it descends, clearing the higher-level field; station interfaces
// pick off packets whose station bit is set, copying multicasts. The
// unique path property and per-ring sequencing points give the global
// ordering of invalidations that the coherence protocol relies on (§2.3).
//
// Concurrency contract: ring interfaces, rings, IRIs and the credit
// accounting are unsynchronized; the machine's single-threaded cycle loop
// ticks them. They are the cross-station layer: HandleSlot acquires — and
// Tick releases — the flow-control credits of the packet's *source*
// station, and ring Ticks move slots between nodes of different stations.
package ring

import (
	"numachine/internal/fault"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// Node is an attachment point on a ring. Each ring tick the ring presents
// the node its current slot; the node returns the packet to leave in the
// slot (nil consumes it; when given nil it may inject).
type Node interface {
	HandleSlot(pkt *msg.Packet, now int64) *msg.Packet
	// InputFull reports whether this node's input buffer is close to
	// capacity, in which case the ring feeding it is halted (§2.4).
	InputFull() bool
	// NextInject reports the earliest cycle at or after which the node
	// could place a packet into a free slot (sim.Never when it has no
	// pending output). The ring's activity gate uses it; a conservative
	// (too early) answer costs a no-op tick, never correctness.
	NextInject(now int64) int64
}

// Ring is one slotted ring. Slots advance every Params.RingHopCycles CPU
// cycles; each slot carries at most one packet.
type Ring struct {
	Name    string
	Central bool

	p       sim.Params
	nodes   []Node
	slots   []*msg.Packet
	occ     int // occupied slots (recounted at each tick; slots change nowhere else)
	seqNode int // sequencing point for invalidation ordering

	// markInSlot sequences invalidations as they pass the sequencing node
	// without absorbing them (central ring and single-ring machines). On
	// local rings of a hierarchy the IRI absorbs and re-injects them,
	// modelling the ordering queue at the connection to the higher level.
	markInSlot bool

	// edgeAt is the first ring-clock edge not yet accounted in Util. Edges
	// the scheduler skipped were provably empty and unhalted (only this
	// ring's own ticks occupy its slots or fill its nodes' input buffers),
	// so each contributes one idle observation per node.
	edgeAt int64

	// Util reports the fraction of slot-observations that were occupied —
	// the ring utilization of Figure 17.
	Util monitor.Utilization
	// Stalls counts ring-halt ticks due to flow control.
	Stalls monitor.Counter

	// Fault, when non-nil, degrades the ring: edges inside the injector's
	// outage windows are halted like flow-control stalls. FaultStalls
	// counts the edges lost to degradation.
	Fault       *fault.Comp
	FaultStalls monitor.Counter

	// Tr is the structured-event trace sink (nil when tracing is off).
	// Ring events are emitted only from edges every cycle loop ticks —
	// stalls (the halt forces a tick) and non-zero occupancy (occupied
	// slots force a tick) — never from the provably-empty edges the
	// scheduler skips, keeping traces loop-invariant.
	Tr *trace.Sink
}

// New builds a ring with the given attached nodes. seqNode is the index of
// the sequencing point (the connection to the higher-level ring, or node 0
// on the central ring / single-ring machines).
func New(name string, p sim.Params, nodes []Node, seqNode int, central bool) *Ring {
	return &Ring{
		Name:       name,
		Central:    central,
		p:          p,
		nodes:      nodes,
		slots:      make([]*msg.Packet, len(nodes)),
		seqNode:    seqNode,
		markInSlot: central || seqNode == 0,
	}
}

// hop returns the ring-clock period in CPU cycles (at least 1).
func (r *Ring) hop() int64 {
	if r.p.RingHopCycles > 1 {
		return int64(r.p.RingHopCycles)
	}
	return 1
}

// nextEdge returns the first ring-clock edge at or after t.
func (r *Ring) nextEdge(t int64) int64 {
	h := r.hop()
	if rem := t % h; rem != 0 {
		t += h - rem
	}
	return t
}

// NextWork reports the earliest ring-clock edge at which Tick can do more
// than rotate empty slots: immediately while packets are in flight or the
// ring is halted (halted edges count flow-control stalls), else the edge
// after some node's pending output becomes injectable.
func (r *Ring) NextWork(now int64) int64 {
	if len(r.nodes) == 0 {
		return sim.Never
	}
	if r.occ > 0 {
		return r.nextEdge(now)
	}
	for _, n := range r.nodes {
		if n.InputFull() {
			return r.nextEdge(now)
		}
	}
	wake := sim.Never
	for _, n := range r.nodes {
		if w := n.NextInject(now); w < wake {
			wake = w
		}
	}
	if wake == sim.Never {
		return sim.Never
	}
	if wake < now {
		wake = now
	}
	return r.nextEdge(wake)
}

// syncUtil accounts the utilization of every edge in [edgeAt, limit]. Only
// edges the scheduler skipped can be pending here, and those were empty
// and unhalted, so each contributes one idle observation per node —
// exactly what the naive per-edge Util loop would have recorded.
func (r *Ring) syncUtil(limit int64) {
	if r.edgeAt > limit || len(r.nodes) == 0 {
		return
	}
	k := (limit-r.edgeAt)/r.hop() + 1
	r.Util.AddTotal(k * int64(len(r.nodes)))
	r.edgeAt += k * r.hop()
}

// SyncStats brings the utilization counters up to date through limit
// without advancing the ring (called before snapshotting results).
func (r *Ring) SyncStats(limit int64) { r.syncUtil(limit) }

// Tick advances the ring if this cycle is a ring-clock edge. Flow control:
// when any attached node's input buffer is near-full the whole ring halts
// (the paper halts the feeding ring; with one slot per node this is the
// same granularity).
func (r *Ring) Tick(now int64) {
	if r.p.RingHopCycles > 1 && now%int64(r.p.RingHopCycles) != 0 {
		return
	}
	if len(r.nodes) == 0 {
		return
	}
	r.syncUtil(now - 1)
	r.edgeAt = now + r.hop()
	for _, n := range r.nodes {
		if n.InputFull() {
			r.Stalls.Inc()
			r.Tr.Emit(now, trace.KindRingStall, 0, 0, int32(r.Occupied()), 0)
			return
		}
	}
	// Degraded-link fault: halt the edge — but only when the edge has work
	// (occupied slots or an injection ready now). The condition matches
	// NextWork's wake predicate exactly, so every loop evaluates it on the
	// same set of edges and stall counts and traces stay loop-invariant;
	// a workless edge inside an outage window moves nothing anyway.
	if r.Fault.Stalled(now) && r.hasWork(now) {
		r.FaultStalls.Inc()
		r.Tr.Emit(now, trace.KindFaultStall, 0, 0, int32(r.Occupied()), 0)
		return
	}
	// Let every node examine/replace its current slot.
	occ := 0
	for i, n := range r.nodes {
		pkt := r.slots[i]
		if r.markInSlot && pkt != nil && i == r.seqNode && !pkt.Sequenced {
			// Invalidations become "sequenced" when they pass the
			// sequencing point of the highest ring level they visit. On a
			// local ring only descend-mode packets (Rings field cleared)
			// are at their top level; on the central ring every packet is.
			if r.Central || pkt.Mask.Rings == 0 {
				pkt.Sequenced = true
			}
		}
		r.slots[i] = n.HandleSlot(pkt, now)
		if r.slots[i] != nil {
			occ++
		}
		r.Util.Tick(r.slots[i] != nil)
	}
	r.occ = occ
	// Advance: slot i moves to node i+1.
	last := r.slots[len(r.slots)-1]
	copy(r.slots[1:], r.slots[:len(r.slots)-1])
	r.slots[0] = last
	if occ := r.Occupied(); occ > 0 {
		r.Tr.Emit(now, trace.KindRingOccupancy, 0, 0, int32(occ), 0)
	}
}

// hasWork reports whether this edge could move a packet: a slot is
// occupied, or some node has output ready to inject now.
func (r *Ring) hasWork(now int64) bool {
	if r.occ > 0 {
		return true
	}
	for _, n := range r.nodes {
		if n.NextInject(now) <= now {
			return true
		}
	}
	return false
}

// Occupied returns the number of full slots.
func (r *Ring) Occupied() int { return r.occ }

// Drained reports whether the ring carries no packets.
func (r *Ring) Drained() bool { return r.occ == 0 }

var _ = topo.Geometry{} // keep import stable while the package grows

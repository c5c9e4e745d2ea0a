// Package bus models the NUMAchine station bus: a single shared,
// arbitrated interconnect joining the processors, the memory module, the
// network cache and the local ring interface of one station. The prototype
// used FutureBus mechanicals with custom control; here the relevant
// behaviour is arbitration latency, command/data occupancy, and the
// single-transaction forwarding used by interventions (one bus transfer
// observed by both the memory/NC and the requesting processor).
//
// Concurrency contract: a Bus is unsynchronized; the machine's
// single-threaded cycle loop ticks it. Tick drains only its own station's
// output queues and delivers only to its own station's modules —
// ring-interface-bound messages merely land on the RI's packetization
// queues.
package bus

import (
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// Module is anything attached to the station bus.
type Module interface {
	// BusOut exposes the module's outgoing queue; the arbiter drains it.
	BusOut() *sim.Queue[*msg.Message]
	// BusDeliver hands the module a message that crossed the bus.
	BusDeliver(m *msg.Message, now int64)
}

// Bus is one station's bus with round-robin arbitration.
type Bus struct {
	g       topo.Geometry
	p       sim.Params
	modules []Module
	outs    []*sim.Queue[*msg.Message] // cached BusOut queues (hot path)
	station int

	busyUntil int64
	inFlight  *msg.Message
	rr        int   // round-robin arbitration pointer
	utilAt    int64 // first cycle not yet accounted in Util

	// Util reproduces the bus utilization measurement of Figure 17.
	Util monitor.Utilization
	// Transfers counts completed bus transactions.
	Transfers monitor.Counter

	// Tr is the structured-event trace sink (nil when tracing is off).
	Tr *trace.Sink

	// Msgs recycles messages that die at delivery (nil-safe; wired by
	// core, shared per station). A message's last stop is the bus exactly
	// when its receivers retain nothing: processor deliveries (the CPU
	// copies what it needs) and multicasts. Memory/NC deliveries are
	// retained in the target's input queue and recycled there instead.
	Msgs *msg.MessagePool
}

// New creates the bus for one station. Modules must be registered with
// Attach in bus-module-index order before the first Tick.
func New(g topo.Geometry, p sim.Params, station int) *Bus {
	return &Bus{
		g: g, p: p, station: station,
		modules: make([]Module, g.ModCount()),
		outs:    make([]*sim.Queue[*msg.Message], g.ModCount()),
	}
}

// Attach registers the module at bus index idx.
func (b *Bus) Attach(idx int, m Module) {
	b.modules[idx] = m
	b.outs[idx] = m.BusOut()
}

// NextWork reports the earliest cycle at or after now at which Tick can do
// more than utilization accounting: the end of the occupying transfer, or
// now when a completed transfer awaits delivery or a module has pending
// output. The gate runs after the CPU phase of the cycle, so same-cycle
// pushes into the out-queues are visible exactly as the naive Tick would
// see them.
func (b *Bus) NextWork(now int64) int64 {
	if now < b.busyUntil {
		return b.busyUntil
	}
	if b.inFlight != nil {
		return now
	}
	for _, q := range b.outs {
		if q != nil && !q.Empty() {
			return now
		}
	}
	return sim.Never
}

// syncUtil accounts Util for every cycle in [utilAt, limit]: a cycle t is
// busy iff t < busyUntil, and busyUntil only moves when the bus actually
// ticks, so the whole gap splits into one busy prefix and an idle tail.
func (b *Bus) syncUtil(limit int64) {
	if b.utilAt > limit {
		return
	}
	b.Util.AddTotal(limit - b.utilAt + 1)
	if busy := min(limit+1, b.busyUntil) - b.utilAt; busy > 0 {
		b.Util.AddBusy(busy)
	}
	b.utilAt = limit + 1
}

// SyncStats brings the utilization counters up to date through limit
// without advancing the bus (called before snapshotting results).
func (b *Bus) SyncStats(limit int64) { b.syncUtil(limit) }

// Tick advances the bus one cycle: finish an in-flight transfer, then
// arbitrate among modules with pending output.
func (b *Bus) Tick(now int64) {
	b.syncUtil(now)
	if now < b.busyUntil {
		return
	}
	if b.inFlight != nil {
		b.deliver(b.inFlight, now)
		b.inFlight = nil
	}
	// Round-robin arbitration.
	n := len(b.modules)
	for i := 0; i < n; i++ {
		idx := (b.rr + i) % n
		q := b.outs[idx]
		if q == nil || q.Empty() {
			continue
		}
		m, ok := q.Pop(now)
		if !ok {
			continue
		}
		cost := b.p.BusArbCycles + b.p.BusCmdCycles
		if m.Type.CarriesData() {
			cost += b.p.BusDataCycles
		}
		b.busyUntil = now + int64(cost)
		b.inFlight = m
		b.rr = (idx + 1) % n
		b.Transfers.Inc()
		b.Tr.Emit(now, trace.KindBusGrant, m.Line, m.TxnID, int32(m.Type), int32(cost))
		return
	}
}

// deliver routes a completed transfer to its destination module(s).
func (b *Bus) deliver(m *msg.Message, now int64) {
	b.Tr.Emit(now, trace.KindBusDeliver, m.Line, m.TxnID, int32(m.Type), int32(m.DstMod))
	if m.DstMod == b.g.ModRI() {
		// Network-bound: hand to the ring interface untouched; the
		// processor multicasts below apply only at the final station.
		b.modules[m.DstMod].BusDeliver(m, now)
		return
	}
	switch m.Type {
	case msg.BusInval, msg.BusIntervention, msg.NetInterrupt, msg.NetBarrier:
		// Multicast to the processors named in BusProcs. The message dies
		// here: processors retain only field values, and a network-borne
		// multicast reaches this bus as the ring interface's private
		// reassembly copy, never the packet-aliased original.
		for i := 0; i < b.g.ProcsPerStation; i++ {
			if m.BusProcs&(1<<uint(i)) != 0 {
				b.modules[b.g.ModProc(i)].BusDeliver(m, now)
			}
		}
		b.Msgs.Put(m)
		return
	case msg.IntervResp:
		// A single transfer observed by the memory/NC and, when AlsoProc is
		// set, by the requesting processor (§2.3: the owner "forwards a copy
		// of the cache line to the requesting processor and to the memory").
		if m.AlsoProc >= 0 && m.AlsoProc < b.g.ProcsPerStation {
			b.modules[b.g.ModProc(m.AlsoProc)].BusDeliver(m, now)
		}
	}
	if tgt := b.modules[m.DstMod]; tgt != nil {
		tgt.BusDeliver(m, now)
		if b.g.IsProcMod(m.DstMod) && m.Type != msg.IntervResp {
			// Processor deliveries are terminal (the CPU copies data into
			// its cache); IntervResp is excluded — its DstMod is always the
			// memory/NC, which queues and recycles it after handling.
			b.Msgs.Put(m)
		}
	}
}

// Quiet reports whether the bus is idle AND no module has pending output —
// nothing can be granted this cycle. Used by the fast-hit horizon.
func (b *Bus) Quiet(now int64) bool {
	if !b.Idle(now) {
		return false
	}
	for _, q := range b.outs {
		if q != nil && !q.Empty() {
			return false
		}
	}
	return true
}

// HitHorizon returns a sound lower bound on the earliest cycle at which a
// transfer could be *delivered* to the processor at local index `local`,
// seen from the CPU phase of cycle now (the bus ticks after the CPUs
// within a cycle, so a probe at cycle t precedes any delivery at t):
//
//   - a granted transfer addressed to this processor completes at
//     max(now, busyUntil) — probes up to that cycle are still exact;
//   - any other delivery needs a fresh grant, which cannot complete in
//     fewer than BusArbCycles+BusCmdCycles after the bus frees.
//
// The bound deliberately ignores the out-queues: a message granted at the
// bus phase of cycle t delivers no earlier than t+arb+cmd, so queued (or
// even same-cycle-pushed) messages can never beat the returned horizon.
func (b *Bus) HitHorizon(local int, now int64) int64 {
	arbcmd := int64(b.p.BusArbCycles + b.p.BusCmdCycles)
	free := b.busyUntil
	if free < now {
		free = now
	}
	if b.inFlight != nil && b.deliversToProc(b.inFlight, local) {
		return free
	}
	return free + arbcmd
}

// deliversToProc mirrors deliver's routing: does m reach the processor at
// local bus index `local`?
func (b *Bus) deliversToProc(m *msg.Message, local int) bool {
	if m.DstMod == b.g.ModRI() {
		return false
	}
	switch m.Type {
	case msg.BusInval, msg.BusIntervention, msg.NetInterrupt, msg.NetBarrier:
		return m.BusProcs&(1<<uint(local)) != 0
	case msg.IntervResp:
		return m.AlsoProc == local || m.DstMod == b.g.ModProc(local)
	}
	return m.DstMod == b.g.ModProc(local)
}

// Busy reports whether a transfer is occupying the bus.
func (b *Bus) Busy(now int64) bool { return now < b.busyUntil }

// Idle reports whether the bus has neither an occupying transfer nor an
// undelivered completed one.
func (b *Bus) Idle(now int64) bool { return !b.Busy(now) && b.inFlight == nil }

package ring

import (
	"numachine/internal/fault"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/trace"
)

// IRI is an inter-ring interface (§3.1.3): a simple switch between a local
// ring and the central ring, made of one FIFO per direction. Ascending
// packets are pulled off the local ring into the up FIFO and injected into
// free central-ring slots; descending packets are copied off the central
// ring (one copy per marked ring, clearing the rings field) into the down
// FIFO and injected into free local-ring slots.
type IRI struct {
	RingID int // the local ring this interface serves

	p       sim.Params
	credits *Credits
	upQ     *sim.Queue[*msg.Packet]
	downQ   *sim.Queue[*msg.Packet]

	// Pkts recycles the descending copies this switch creates and the
	// packets that die here (fully-copied multicast originals, switch-time
	// drops). Msgs recycles a message whose last reference dies here —
	// possible only for fault-dropped requests. Both are nil-safe; core
	// wires the machine's shared pools.
	Pkts *msg.PacketPool
	Msgs *msg.MessagePool

	// UpDelay feeds Figure 18b (average delay in the upward path of the
	// central ring interface).
	UpDelay   monitor.Sampler
	DownDelay monitor.Sampler

	// Fault, when non-nil, loses droppable request packets as they switch
	// between ring levels; the packet's flow-control credit is returned so
	// the drop cannot wedge the sender's nonsinkable budget. Drops counts
	// the injected losses.
	Fault *fault.Comp
	Drops monitor.Counter

	// Tr is the structured-event trace sink (nil when tracing is off).
	// Switch events fire only on pushes into the up/down FIFOs, which
	// require an occupied slot on the feeding ring — an edge every cycle
	// loop ticks — so traces stay loop-invariant.
	Tr *trace.Sink
}

// NewIRI builds the interface for local ring ringID. credits is the
// station flow-control accounting (may be nil in unit tests); the IRI
// needs it to return the credit of a packet the fault injector loses.
func NewIRI(p sim.Params, ringID int, credits *Credits) *IRI {
	i := &IRI{
		RingID:  ringID,
		p:       p,
		credits: credits,
		upQ:     sim.NewQueue[*msg.Packet](p.IRIFIFO),
		downQ:   sim.NewQueue[*msg.Packet](p.IRIFIFO),
	}
	// Observed at the end of the cycle, after the ring phases that push and
	// pop these FIFOs, hence prePush=false.
	i.upQ.MonitorEvery(32, false)
	i.downQ.MonitorEvery(32, false)
	return i
}

// LocalPort returns the IRI's attachment to its local ring.
func (i *IRI) LocalPort() Node { return localPort{i} }

// CentralPort returns the IRI's attachment to the central ring.
func (i *IRI) CentralPort() Node { return centralPort{i} }

// ObserveAt brings the periodic FIFO-depth sampling up to date through
// cycle now (the machine calls it at the end of every stepped cycle).
func (i *IRI) ObserveAt(now int64) { i.upQ.ObserveAt(now); i.downQ.ObserveAt(now) }

// SyncStats accounts all observation boundaries through limit (called
// before snapshotting results).
func (i *IRI) SyncStats(limit int64) { i.upQ.SyncObsTo(limit); i.downQ.SyncObsTo(limit) }

// UpStats and DownStats expose queue statistics.
func (i *IRI) UpStats() sim.QueueStats   { return i.upQ.Stats() }
func (i *IRI) DownStats() sim.QueueStats { return i.downQ.Stats() }

// Idle reports whether both FIFOs are empty.
func (i *IRI) Idle() bool { return i.upQ.Empty() && i.downQ.Empty() }

type localPort struct{ i *IRI }

func (l localPort) InputFull() bool {
	q := l.i.upQ
	return q.Capacity > 0 && q.Len() >= q.Capacity-1
}

// NextInject reports when the port could next place a packet into a free
// local-ring slot: the head of the down FIFO becomes ready at its ReadyAt.
func (l localPort) NextInject(now int64) int64 {
	if pk, ok := l.i.downQ.Peek(); ok {
		return pk.ReadyAt
	}
	return sim.Never
}

func (l localPort) HandleSlot(pkt *msg.Packet, now int64) *msg.Packet {
	i := l.i
	if pkt != nil {
		if pkt.Mask.Rings != 0 {
			// Ascending packet: ring interfaces to higher-level rings always
			// switch these up (§2.2).
			if !i.upQ.Full() {
				// Drop fault: the request is lost in the switch. The draw
				// happens only for droppable types on an occupied-slot
				// edge, which every cycle loop ticks.
				if pkt.Msg.Type.Droppable() && i.Fault.Drop() {
					i.Drops.Inc()
					i.Tr.Emit(now, trace.KindFaultDrop, pkt.Msg.Line, pkt.Msg.TxnID,
						int32(pkt.Msg.Type), 1)
					if i.credits != nil {
						i.credits.Release(pkt.Msg.SrcStation)
					}
					i.drop(pkt)
					return nil
				}
				pkt.ReadyAt = now + int64(i.p.IRICycles)
				i.upQ.Push(pkt, now)
				i.Tr.Emit(now, trace.KindFlitSwitch, pkt.Msg.Line, pkt.Msg.TxnID,
					0, int32(pkt.Msg.Type))
				return nil
			}
			return pkt
		}
		if !pkt.Sequenced {
			// This ring is the packet's highest level: the IRI is its
			// sequencing point (§2.3). Absorb the invalidation into the
			// ordering queue and re-inject it sequenced.
			if !i.downQ.Full() {
				pkt.Sequenced = true
				pkt.ReadyAt = now + int64(i.p.IRICycles)
				pkt.EnqueuedAt = now
				i.downQ.Push(pkt, now)
				i.Tr.Emit(now, trace.KindFlitSwitch, pkt.Msg.Line, pkt.Msg.TxnID,
					1, int32(pkt.Msg.Type))
				return nil
			}
		}
		return pkt
	}
	if pk, ok := i.downQ.Peek(); ok && pk.ReadyAt <= now {
		i.downQ.Pop(now)
		i.DownDelay.Sample(now - pk.EnqueuedAt)
		return pk
	}
	return nil
}

type centralPort struct{ i *IRI }

func (c centralPort) InputFull() bool {
	q := c.i.downQ
	return q.Capacity > 0 && q.Len() >= q.Capacity-1
}

// NextInject reports when the port could next place a packet into a free
// central-ring slot: the head of the up FIFO becomes ready at its ReadyAt.
func (c centralPort) NextInject(now int64) int64 {
	if pk, ok := c.i.upQ.Peek(); ok {
		return pk.ReadyAt
	}
	return sim.Never
}

func (c centralPort) HandleSlot(pkt *msg.Packet, now int64) *msg.Packet {
	i := c.i
	if pkt != nil {
		if pkt.Mask.Rings&(1<<uint(i.RingID)) != 0 && pkt.Sequenced {
			if !i.downQ.Full() {
				// Drop fault: the descending copy is lost. Droppable
				// requests are unicast, so clearing this ring's bit
				// normally consumes the packet and frees its credit.
				if pkt.Msg.Type.Droppable() && i.Fault.Drop() {
					i.Drops.Inc()
					i.Tr.Emit(now, trace.KindFaultDrop, pkt.Msg.Line, pkt.Msg.TxnID,
						int32(pkt.Msg.Type), 2)
					pkt.Mask.Rings &^= 1 << uint(i.RingID)
					if pkt.Mask.Rings == 0 {
						if i.credits != nil {
							i.credits.Release(pkt.Msg.SrcStation)
						}
						i.drop(pkt)
						return nil
					}
					return pkt
				}
				// Copy the packet downward, clearing the higher-level field.
				cp := i.Pkts.Get()
				*cp = *pkt
				cp.Msg.AddRef() // the descend copy aliases the message too
				cp.Mask.Rings = 0
				cp.ReadyAt = now + int64(i.p.IRICycles)
				cp.EnqueuedAt = now
				i.downQ.Push(cp, now)
				i.Tr.Emit(now, trace.KindFlitSwitch, cp.Msg.Line, cp.Msg.TxnID,
					1, int32(cp.Msg.Type))
				pkt.Mask.Rings &^= 1 << uint(i.RingID)
				if pkt.Mask.Rings == 0 {
					// Fully copied: the descend copies hold references, so
					// this release cannot be the last.
					mm := pkt.Msg
					i.Pkts.Put(pkt)
					mm.Release()
					return nil
				}
			}
		}
		return pkt
	}
	if pk, ok := i.upQ.Peek(); ok && pk.ReadyAt <= now {
		i.upQ.Pop(now)
		i.UpDelay.Sample(now - pk.EnqueuedAt)
		return pk
	}
	return nil
}

// drop recycles a packet lost to a fault and releases its message
// reference, recycling the message too when no other packet aliases it.
func (i *IRI) drop(pkt *msg.Packet) {
	mm := pkt.Msg
	i.Pkts.Put(pkt)
	if mm.Release() {
		i.Msgs.Put(mm)
	}
}

package ring

import (
	"numachine/internal/fault"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// Credits bounds the number of nonsinkable messages each station may have
// in the network at once (§2.4: up to 16 in the prototype). The bound is
// what makes the sinkable/nonsinkable queueing discipline deadlock-free.
// Only station st's own ring interface acquires slot st (every ring-bound
// message is injected at its source station); releases happen wherever
// the message is consumed or dropped.
type Credits struct {
	max      int
	inFlight []int
}

// NewCredits creates the accounting for the given number of stations.
func NewCredits(stations, max int) *Credits {
	return &Credits{max: max, inFlight: make([]int, stations)}
}

// TryAcquire reserves a slot for a nonsinkable message from station st.
func (c *Credits) TryAcquire(st int) bool {
	if c.max > 0 && c.inFlight[st] >= c.max {
		return false
	}
	c.inFlight[st]++
	return true
}

// Release returns the slot when the message is consumed at its target.
func (c *Credits) Release(st int) {
	c.inFlight[st]--
	if c.inFlight[st] < 0 {
		panic("ring: nonsinkable credit underflow")
	}
}

// InFlight reports station st's outstanding nonsinkable messages.
func (c *Credits) InFlight(st int) int { return c.inFlight[st] }

// StationRI is the local ring interface of one station (Figure 11). On the
// upward path it packetizes bus messages into the sinkable or nonsinkable
// output queue and injects packets into free slots (sinkable first). On
// the downward path it reassembles packets from its input FIFO into
// messages and forwards them onto the station bus.
type StationRI struct {
	Station int

	g       topo.Geometry
	p       sim.Params
	ringID  int
	pos     int
	credits *Credits

	busOutQ  *sim.Queue[*msg.Message] // toward the station bus
	sinkQ    *sim.Queue[*msg.Packet]
	nonsinkQ *sim.Queue[*msg.Packet]
	inFIFO   *sim.Queue[*msg.Packet]

	reasm      map[*msg.Message]int
	firstSeen  map[*msg.Message]int64
	unpackBusy int64

	// Pkts recycles the packets this interface creates (packetization and
	// the per-station consume copy) and the ones that die here (last
	// multicast destination, injection-time drops, reassembled input). See
	// msg.PacketPool for why reuse cannot change simulated behaviour.
	// Nil-safe; core wires the machine's shared pool.
	Pkts *msg.PacketPool

	// Msgs recycles messages whose last stop is this interface (nil-safe;
	// core wires the machine's shared pool): loopback originals superseded
	// by their private copy, and network originals once the last aliasing
	// packet has died. Aliasing is tracked by the message's packet
	// reference count: BusDeliver seeds it with the number of packets
	// created (including duplicate-fault chains), every copy — the
	// per-station consume copy here, the per-ring descend copy in the IRI —
	// adds one, and every packet death releases one. The releaser that
	// drops the count to zero owns the message and recycles it, so
	// multicast and dup-faulted originals recycle too instead of leaking
	// to the GC.
	Msgs *msg.MessagePool

	// Figure 18a measurements.
	SendDelay   monitor.Sampler // output-queue wait, upward path
	DownSink    monitor.Sampler // arrival->bus-handoff, sinkable
	DownNonsink monitor.Sampler // arrival->bus-handoff, nonsinkable
	// Delivered counts messages handed to the bus; Injected counts packets
	// placed on the ring.
	Delivered monitor.Counter
	Injected  monitor.Counter

	// Fault, when non-nil, injects transient packet faults at this
	// interface: droppable requests vanish at injection time, and
	// dup-safe responses are packetized twice. Drops and Dups count the
	// injected faults.
	Fault *fault.Comp
	Drops monitor.Counter
	Dups  monitor.Counter

	// Tr is the structured-event trace sink (nil when tracing is off).
	Tr *trace.Sink
}

// NewStationRI builds the ring interface for a station.
func NewStationRI(g topo.Geometry, p sim.Params, station int, credits *Credits) *StationRI {
	r := &StationRI{
		Station:   station,
		g:         g,
		p:         p,
		ringID:    g.RingOf(station),
		pos:       g.PosOf(station),
		credits:   credits,
		busOutQ:   sim.NewQueue[*msg.Message](0),
		sinkQ:     sim.NewQueue[*msg.Packet](0),
		nonsinkQ:  sim.NewQueue[*msg.Packet](0),
		inFIFO:    sim.NewQueue[*msg.Packet](p.RingInputFIFO),
		reasm:     make(map[*msg.Message]int),
		firstSeen: make(map[*msg.Message]int64),
	}
	// Observed at the top of Tick, which runs before the ring phase that
	// pushes into this FIFO, hence prePush=true.
	r.inFIFO.MonitorEvery(32, true)
	return r
}

// BusOut implements bus.Module: messages arriving from the ring exit here.
func (r *StationRI) BusOut() *sim.Queue[*msg.Message] { return r.busOutQ }

// BusDeliver implements bus.Module: a station module handed us a message
// bound for the network. The packet generator splits it into ring packets.
func (r *StationRI) BusDeliver(m *msg.Message, now int64) {
	// Degenerate but legal: a message addressed to this very station loops
	// back locally (single-station machines).
	if m.DstStation == r.Station && m.Type != msg.Invalidate {
		cp := r.Msgs.Get()
		*cp = *m
		r.route(cp)
		r.busOutQ.Push(cp, now)
		r.Msgs.Put(m) // superseded by the private copy
		return
	}
	mask := m.Mask
	multicast := m.Type == msg.Invalidate || m.Type == msg.NetInterrupt || m.Type == msg.NetBarrier
	if !multicast || mask.IsZero() {
		mask = r.g.MaskFor(m.DstStation)
	}
	// A mask confined to this ring is already at its highest level: clear
	// the rings field so the packet travels in descend mode.
	if mask.Rings == 1<<uint(r.ringID) {
		mask.Rings = 0
	}
	n := m.Packets(r.p.PacketsPerLine)
	r.Tr.Emit(now, trace.KindFlitEnqueue, m.Line, m.TxnID, int32(m.Type), int32(n))
	q := r.sinkQ
	if !m.Type.Sinkable() {
		q = r.nonsinkQ
	}
	// Duplication fault: packetize the whole message twice. The RNG is
	// drawn only for dup-safe types at this real-work event, which every
	// cycle loop executes identically, so faulted runs stay bit-identical.
	copies := 1
	if m.Type.DupSafe() && r.Fault.Dup() {
		copies = 2
		r.Dups.Inc()
		r.Tr.Emit(now, trace.KindFaultDup, m.Line, m.TxnID, int32(m.Type), int32(n))
	}
	// Seed the reference count with the packets created below; copies made
	// downstream add their own and the last death anywhere recycles m.
	m.InitRefs(copies * n)
	for c := 0; c < copies; c++ {
		for i := 0; i < n; i++ {
			pk := r.Pkts.Get()
			*pk = msg.Packet{
				Msg:        m,
				Seq:        i,
				Of:         n,
				Mask:       mask,
				Sequenced:  m.Type != msg.Invalidate,
				EnqueuedAt: now,
				ReadyAt:    now + int64(r.p.RIPackCycles),
			}
			q.Push(pk, now)
		}
	}
}

// InputFull implements Node flow control: halt the ring when the input
// FIFO can no longer absorb one packet per tick safely.
func (r *StationRI) InputFull() bool {
	return r.inFIFO.Capacity > 0 && r.inFIFO.Len() >= r.inFIFO.Capacity-1
}

// HandleSlot implements Node: consume packets addressed to this station,
// inject pending output into free slots.
func (r *StationRI) HandleSlot(pkt *msg.Packet, now int64) *msg.Packet {
	if pkt != nil {
		if pkt.Mask.Rings == 0 && pkt.Mask.Stations&(1<<uint(r.pos)) != 0 && pkt.Sequenced {
			if !r.inFIFO.Full() {
				cp := r.Pkts.Get()
				*cp = *pkt
				cp.Msg.AddRef() // one more live packet aliases the message
				r.inFIFO.Push(cp, now)
				r.Tr.Emit(now, trace.KindFlitArrive, pkt.Msg.Line, pkt.Msg.TxnID,
					int32(pkt.Msg.Type), int32(pkt.Seq))
				pkt.Mask.Stations &^= 1 << uint(r.pos)
				if pkt.Mask.Stations == 0 {
					// Last destination: free the slot. The copy above holds a
					// reference, so the release cannot be the message's last.
					mm := pkt.Msg
					r.Pkts.Put(pkt)
					mm.Release()
					return nil
				}
			}
		}
		return pkt
	}
	// Free slot: sinkable output has priority (§2.4).
	if pk, ok := r.sinkQ.Peek(); ok && pk.ReadyAt <= now {
		r.sinkQ.Pop(now)
		r.SendDelay.Sample(now - pk.EnqueuedAt)
		r.Injected.Inc()
		r.Tr.Emit(now, trace.KindFlitInject, pk.Msg.Line, pk.Msg.TxnID,
			int32(pk.Msg.Type), int32(pk.Seq))
		return pk
	}
	if pk, ok := r.nonsinkQ.Peek(); ok && pk.ReadyAt <= now {
		// Nonsinkable messages are single packets; each consumes a credit.
		if r.credits == nil || r.credits.TryAcquire(pk.Msg.SrcStation) {
			r.nonsinkQ.Pop(now)
			// Drop fault: the request vanishes at injection time. The
			// credit goes back (the message never enters the network) and
			// the sender's loss timeout recovers the transaction. The RNG
			// is drawn only for droppable types at this injection event,
			// which every cycle loop reaches identically.
			if pk.Msg.Type.Droppable() && r.Fault.Drop() {
				if r.credits != nil {
					r.credits.Release(pk.Msg.SrcStation)
				}
				r.Drops.Inc()
				r.Tr.Emit(now, trace.KindFaultDrop, pk.Msg.Line, pk.Msg.TxnID,
					int32(pk.Msg.Type), 0)
				mm := pk.Msg
				r.Pkts.Put(pk)
				if mm.Release() {
					r.Msgs.Put(mm)
				}
				return nil
			}
			r.SendDelay.Sample(now - pk.EnqueuedAt)
			r.Injected.Inc()
			r.Tr.Emit(now, trace.KindFlitInject, pk.Msg.Line, pk.Msg.TxnID,
				int32(pk.Msg.Type), int32(pk.Seq))
			return pk
		}
	}
	return nil
}

// NextWork reports the earliest cycle at or after now at which Tick can do
// more than occupancy sampling: the end of the current unpack latency when
// packets are buffered, or now. An empty input FIFO only refills through
// the ring phase, which the gate for the following cycle will see.
func (r *StationRI) NextWork(now int64) int64 {
	if r.inFIFO.Empty() {
		return sim.Never
	}
	if now < r.unpackBusy {
		return r.unpackBusy
	}
	return now
}

// NextInject implements the Node activity probe: the earliest cycle at
// which a queued output packet becomes ready for a free slot. A
// credit-blocked nonsinkable head still reports its ReadyAt — waking the
// ring for a tick that injects nothing is harmless (the naive loop ticks
// it every edge regardless), only missing work would not be.
func (r *StationRI) NextInject(now int64) int64 {
	wake := sim.Never
	if pk, ok := r.sinkQ.Peek(); ok {
		wake = pk.ReadyAt
	}
	if pk, ok := r.nonsinkQ.Peek(); ok && pk.ReadyAt < wake {
		wake = pk.ReadyAt
	}
	return wake
}

// SyncStats brings the input-FIFO occupancy sampling up to date through
// limit (called before snapshotting results).
func (r *StationRI) SyncStats(limit int64) { r.inFIFO.SyncObsTo(limit) }

// InFIFODepth returns the current input-FIFO depth (diagnostics).
func (r *StationRI) InFIFODepth() int { return r.inFIFO.Len() }

// Tick drains the input FIFO through the packet handler, reassembling
// messages and handing completed ones to the station bus.
func (r *StationRI) Tick(now int64) {
	r.inFIFO.ObserveAt(now)
	for now >= r.unpackBusy {
		pkt, ok := r.inFIFO.Pop(now)
		if !ok {
			return
		}
		m := pkt.Msg
		if _, seen := r.firstSeen[m]; !seen {
			r.firstSeen[m] = pkt.EnqueuedAt
		}
		r.reasm[m]++
		of := pkt.Of
		r.Pkts.Put(pkt) // reassembly is keyed by m; the packet is done
		if r.reasm[m] < of {
			// Mid-chain packet: the chain's remaining packets hold further
			// references, so this release cannot recycle m while the reasm
			// maps still key on it.
			m.Release()
			continue
		}
		// Message complete: deliver a private copy to the bus.
		delete(r.reasm, m)
		first := r.firstSeen[m]
		delete(r.firstSeen, m)
		cp := r.Msgs.Get()
		*cp = *m
		r.route(cp)
		if m.Type.Sinkable() {
			r.DownSink.Sample(now - first)
		} else {
			r.DownNonsink.Sample(now - first)
		}
		if !m.Type.Sinkable() && r.credits != nil {
			r.credits.Release(m.SrcStation)
		}
		r.busOutQ.Push(cp, now)
		r.Delivered.Inc()
		r.Tr.Emit(now, trace.KindFlitDeliver, m.Line, m.TxnID,
			int32(m.Type), int32(now-first))
		r.unpackBusy = now + int64(r.p.RIUnpackCycles)
		// The bus sees only the private copy above, so the original dies
		// with its packets: release this one's reference last (Put zeroes m,
		// so every read of m above must precede this) and recycle when no
		// packet anywhere — another station's consume copies, a duplicate
		// fault chain, an IRI descend copy — still aliases it.
		if m.Release() {
			r.Msgs.Put(m)
		}
	}
}

// route assigns the station-bus destination of an incoming network
// message: memory-directed traffic has this station as home, everything
// else concerns the network cache, and interrupt/barrier writes go to
// processors.
func (r *StationRI) route(m *msg.Message) {
	switch m.Type {
	case msg.NetInterrupt, msg.NetBarrier:
		m.DstMod = -1 // bus multicasts to BusProcs
		if m.BusProcs == 0 {
			m.BusProcs = 1<<uint(r.g.ProcsPerStation) - 1
		}
		m.DstMod = r.g.ModProc(0) // fallback target; bus multicast handles fan-out
	default:
		if m.Home == r.Station {
			m.DstMod = r.g.ModMem()
		} else {
			m.DstMod = r.g.ModNC()
		}
	}
	m.SrcMod = r.g.ModRI()
	m.DstStation = r.Station
}

// QueueStats exposes queue statistics for the monitoring reports.
func (r *StationRI) QueueStats() (sendSink, sendNonsink, input sim.QueueStats) {
	return r.sinkQ.Stats(), r.nonsinkQ.Stats(), r.inFIFO.Stats()
}

// Idle reports whether the interface holds no packets or messages.
func (r *StationRI) Idle() bool {
	return r.sinkQ.Empty() && r.nonsinkQ.Empty() && r.inFIFO.Empty() &&
		r.busOutQ.Empty() && len(r.reasm) == 0
}

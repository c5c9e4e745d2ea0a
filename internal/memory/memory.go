// Package memory implements the NUMAchine memory module (§3.1.2): DRAM
// storage, the SRAM directory holding a routing mask, a local processor
// mask and state bits per cache line, and the hardware cache coherence
// block that implements the memory side of the two-level protocol — the
// state machine of Figure 5 with states LV, LI, GV, GI plus locked
// versions.
//
// The directory design follows §2.3 exactly: the network level is a full
// directory of (inexact) routing masks whose storage grows logarithmically
// with system size; the station level is a per-processor bit mask. The
// module also provides the "special functions" of §3.1.2 (kill operations
// and coherence-bypassing accesses) used by system software.
//
// Concurrency contract: a Module is unsynchronized; the machine's
// single-threaded cycle loop ticks it. Tick consumes its own input queue
// and pushes every response — including network messages for other
// stations — onto its own outbound bus queue; cross-station delivery
// happens cycles later through the ring interface.
package memory

import (
	"fmt"

	"numachine/internal/fault"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// DirState is the four-state line status kept in memory and network-cache
// directories (§2.3). The locked variants are represented by a separate
// lock bit, as in the hardware.
type DirState uint8

const (
	// LV (local valid): valid copies exist only on this station; memory and
	// the processors in the processor mask hold the line.
	LV DirState = iota
	// LI (local invalid): exactly one local secondary cache holds the line,
	// dirty; memory's copy is stale.
	LI
	// GV (global valid): memory holds a valid copy, shared by the stations
	// in the routing mask.
	GV
	// GI (global invalid): no valid copy on this station; a remote network
	// cache identified (exactly) by the routing mask owns the line.
	GI
)

// String returns the paper's mnemonic.
func (s DirState) String() string { return [...]string{"LV", "LI", "GV", "GI"}[s] }

// HistRows and HistCols label the cache coherence histogram table (§3.3.3):
// one row per memory transaction type, one column per line state crossed
// with the lock bit.
var (
	HistRows = []string{"LocalRead", "LocalReadEx", "LocalUpgd", "LocalWrBack",
		"RemRead", "RemReadEx", "RemUpgd", "RemWrBack", "SpecialWrReq", "KillReq"}
	HistCols = []string{"LV", "LI", "GV", "GI", "LV*", "LI*", "GV*", "GI*"}
)

func histRow(t msg.Type) int {
	switch t {
	case msg.LocalRead:
		return 0
	case msg.LocalReadEx:
		return 1
	case msg.LocalUpgd:
		return 2
	case msg.LocalWrBack:
		return 3
	case msg.RemRead:
		return 4
	case msg.RemReadEx:
		return 5
	case msg.RemUpgd:
		return 6
	case msg.RemWrBack:
		return 7
	case msg.SpecialWrReq:
		return 8
	case msg.KillReq:
		return 9
	}
	return -1
}

// entry is one directory entry plus the line's DRAM contents.
type entry struct {
	state  DirState
	locked bool
	mask   topo.RoutingMask // network-level directory (stations with copies / owner)
	procs  uint16           // station-level directory (local processor copies)
	data   uint64           // DRAM contents (the simulator's 64-bit line value)
	txn    *txn
}

// txn tracks an in-flight transition while the line is locked.
type txn struct {
	kind       msg.Type // the request that started the transition
	requester  int      // global processor id (-1 when remote)
	reqStation int      // station to receive the response
	id         uint64

	waitInval bool // completes when the invalidation multicast returns
	granted   bool // response already sent (no-SC-locking mode)
	wbSeen    bool // a write-back for the line arrived while locked
	wbData    uint64
	wbProc    int  // local processor that wrote back (-1 otherwise)
	wbStation int  // station whose NC wrote back (-1 otherwise)
	missSeen  bool // intervention target no longer held the line
	upgdAck   bool // respond with ProcUpgdAck rather than data

	// netInterv marks transitions driven by a network intervention, and
	// ownerStation names the station it targeted. Only that station (or,
	// for granted transitions, the requesting station) may satisfy the
	// transition with a RemWrBack: anything else is a stale or duplicated
	// write-back the fault injector replayed.
	netInterv    bool
	ownerStation int
}

// Stats aggregates the memory module's monitoring hardware.
type Stats struct {
	Transactions     monitor.Counter
	NAKs             monitor.Counter
	InvalidatesSent  monitor.Counter // network invalidation multicasts
	BusInvals        monitor.Counter
	Interventions    monitor.Counter // bus + network interventions issued
	OptimisticAcks   monitor.Counter // upgrades answered without data (§2.3)
	UpgradeDataSends monitor.Counter // upgrades that had to carry data
	SpecialWrServed  monitor.Counter // misfired optimistic upgrades (§4.6)
	FalseRemotes     monitor.Counter // false remote requests bounced (Table 3)
	Hist             *monitor.Table  // coherence histogram (§3.3.3)
}

// Module is one station's memory module.
type Module struct {
	Station int

	g topo.Geometry
	p sim.Params

	dir    map[uint64]*entry
	inQ    *sim.Queue[*msg.Message]
	outQ   *sim.Queue[*msg.Message]
	busy   int64
	staged *msg.Message // dequeued message being processed until busy
	txnSeq uint64
	locks  int // currently locked lines (kept in step by lock/unlock)

	// txnFree recycles per-transition directory state: every locked line
	// allocates a txn and frees it at unlock (the kill paths that complete
	// without locking free theirs inline), so steady state allocates none.
	// Single-owner like the module itself; plain LIFO, so reuse order is
	// deterministic and txn pointers are never compared or used as keys.
	txnFree []*txn

	// InitData seeds the DRAM value of untouched lines (tests use it).
	InitData uint64

	// Tr is the structured-event trace sink (nil when tracing is off).
	Tr *trace.Sink

	// Fault holds this module's injected freeze/wedge schedule (nil in
	// fault-free runs; every method is inert on nil).
	Fault *fault.Comp

	// Mut selects a deliberate protocol defect for mutation testing
	// (MutNone in production; see mutation.go).
	Mut Mutation

	// Msgs recycles consumed and constructed messages (nil-safe; wired by
	// core, shared per station).
	Msgs *msg.MessagePool

	Stats Stats
}

// New builds the memory module for a station.
func New(g topo.Geometry, p sim.Params, station int) *Module {
	m := &Module{
		Station: station,
		g:       g,
		p:       p,
		dir:     make(map[uint64]*entry),
		inQ:     sim.NewQueue[*msg.Message](0),
		outQ:    sim.NewQueue[*msg.Message](0),
		Stats:   Stats{Hist: monitor.NewTable(fmt.Sprintf("memory[%d] coherence histogram", station), HistRows, HistCols)},
	}
	// The input queue is observed every 32 cycles at the top of Tick, after
	// the same-cycle bus deliveries (the bus phase precedes the memory
	// phase), hence prePush=false.
	m.inQ.MonitorEvery(32, false)
	return m
}

// BusOut implements bus.Module.
func (m *Module) BusOut() *sim.Queue[*msg.Message] { return m.outQ }

// BusDeliver implements bus.Module: enqueue for in-order processing.
func (m *Module) BusDeliver(x *msg.Message, now int64) {
	m.inQ.Push(x, now)
	m.Tr.Emit(now, trace.KindQueueDepth, 0, 0, int32(m.inQ.Len()), 0)
}

// Idle reports whether the module has no queued or in-flight work.
func (m *Module) Idle() bool { return m.inQ.Empty() && m.outQ.Empty() && m.staged == nil }

// PendingLocks returns the number of locked lines. Maintained
// incrementally by lock/unlock: the machine's quiescence check (and, with
// the fast-hit horizon, every deep-idle window computation) calls this on
// hot paths, so it must not scan the directory.
func (m *Module) PendingLocks() int { return m.locks }

// NextWork reports the earliest cycle at or after now at which Tick can do
// more than occupancy sampling: the end of the current directory/DRAM
// access when a message is staged, or now when input is queued. The gate
// runs after the bus phase of the cycle, so same-cycle deliveries are
// visible exactly as the naive Tick would see them.
func (m *Module) NextWork(now int64) int64 {
	if m.staged != nil || !m.inQ.Empty() {
		at := now
		if now < m.busy {
			at = m.busy
		}
		// An injected freeze pushes the wake-up to the window's end (Never
		// once wedged), so the event-aware loops skip exactly the cycles
		// the naive loop's Tick stalls through.
		return m.Fault.NextFree(at)
	}
	return sim.Never
}

// SyncStats brings the input-queue occupancy sampling up to date through
// limit (called before snapshotting results).
func (m *Module) SyncStats(limit int64) { m.inQ.SyncObsTo(limit) }

// InQStats exposes the input-queue statistics (diagnostics).
func (m *Module) InQStats() sim.QueueStats { return m.inQ.Stats() }

// InQDepth returns the current input-queue depth (diagnostics).
func (m *Module) InQDepth() int { return m.inQ.Len() }

// Tick processes the input queue: a dequeued message occupies the
// controller for its directory (and, when data moves, DRAM) access time
// and takes effect when that time has elapsed.
func (m *Module) Tick(now int64) {
	m.inQ.ObserveAt(now)
	if m.Fault.Stalled(now) {
		return
	}
	if now < m.busy {
		return
	}
	if m.staged != nil {
		x := m.staged
		m.staged = nil
		m.handle(x, now)
		// Bus-delivered messages are single-owner (the ring interface hands
		// the bus a private copy of every reassembled or looped-back
		// message), and handle retains only field values — the message is
		// dead here.
		m.Msgs.Put(x)
	}
	x, ok := m.inQ.Pop(now)
	if !ok {
		return
	}
	m.Tr.Emit(now, trace.KindQueueDepth, 0, 0, int32(m.inQ.Len()), 0)
	cost := m.p.MemDirCycles
	switch x.Type {
	case msg.IntervResp, msg.NetWBCopy, msg.NetData, msg.NetDataEx:
		// Forwarded/collected data is pipelined into DRAM alongside the
		// response; only the directory pass is on the critical path.
	default:
		if x.Type.CarriesData() || x.Type == msg.LocalRead || x.Type == msg.RemRead ||
			x.Type == msg.LocalReadEx || x.Type == msg.RemReadEx {
			cost += m.p.MemDRAMCycles
		}
	}
	m.busy = now + int64(cost)
	m.staged = x
}

func (m *Module) entry(line uint64) *entry {
	e := m.dir[line]
	if e == nil {
		e = &entry{state: LV, mask: m.g.MaskFor(m.Station), data: m.InitData}
		m.dir[line] = e
	}
	return e
}

// Peek exposes directory state for tests and the invariant checker.
func (m *Module) Peek(line uint64) (state DirState, locked bool, mask topo.RoutingMask, procs uint16, data uint64) {
	e := m.entry(line)
	return e.state, e.locked, e.mask, e.procs, e.data
}

// PokeData writes DRAM directly, bypassing coherence — the software
// back-door of §3.2. Tests and the block-copy special function use it.
func (m *Module) PokeData(line uint64, data uint64) { m.entry(line).data = data }

// TxnInfo describes the pending transaction on a line (diagnostics).
func (m *Module) TxnInfo(line uint64) string {
	e := m.dir[line]
	if e == nil || e.txn == nil {
		return "none"
	}
	t := e.txn
	return fmt.Sprintf("txn{kind=%v req=%d reqSt=%d waitInval=%v granted=%v wb=%v miss=%v id=%d}",
		t.kind, t.requester, t.reqStation, t.waitInval, t.granted, t.wbSeen, t.missSeen, t.id)
}

// ForEachLine visits every directory entry (invariant checker support).
func (m *Module) ForEachLine(fn func(line uint64, state DirState, locked bool, procs uint16, data uint64)) {
	for line, e := range m.dir {
		fn(line, e.state, e.locked, e.procs, e.data)
	}
}

func (m *Module) recordHist(t msg.Type, e *entry) {
	if r := histRow(t); r >= 0 {
		c := int(e.state)
		if e.locked {
			c += 4
		}
		m.Stats.Hist.Add(r, c)
	}
}

func (m *Module) nextTxn() uint64 {
	m.txnSeq++
	return uint64(m.Station)<<40 | m.txnSeq
}

// ---- output helpers ----

func (m *Module) homeMask() topo.RoutingMask { return m.g.MaskFor(m.Station) }

// toProc queues a response to a local processor.
func (m *Module) toProc(now int64, t msg.Type, localProc int, line uint64, data uint64, nakOf msg.Type) {
	out := m.Msgs.Get()
	*out = msg.Message{
		Type: t, Line: line, Home: m.Station,
		SrcMod: m.g.ModMem(), DstMod: m.g.ModProc(localProc),
		SrcStation: m.Station, DstStation: m.Station,
		Data: data, HasData: t.CarriesData(), NakOf: nakOf, IssueCycle: now,
	}
	m.outQ.Push(out, now)
}

// toStation queues a network message via the ring interface.
func (m *Module) toStation(now int64, t msg.Type, dst int, line uint64, x *msg.Message) *msg.Message {
	out := m.Msgs.Get()
	*out = msg.Message{
		Type: t, Line: line, Home: m.Station,
		SrcMod: m.g.ModMem(), DstMod: m.g.ModRI(),
		SrcStation: m.Station, DstStation: dst,
		IssueCycle: now,
	}
	if x != nil {
		out.Requester = x.Requester
		out.ReqStation = x.ReqStation
		out.TxnID = x.TxnID
	}
	m.outQ.Push(out, now)
	return out
}

// busInval queues an invalidation of the local copies in procs.
func (m *Module) busInval(now int64, line uint64, procs uint16) {
	if procs == 0 || m.Mut == MutSkipBusInval {
		return
	}
	m.Stats.BusInvals.Inc()
	out := m.Msgs.Get()
	*out = msg.Message{
		Type: msg.BusInval, Line: line, Home: m.Station,
		SrcMod: m.g.ModMem(), DstMod: m.g.ModProc(0), BusProcs: procs,
		SrcStation: m.Station, DstStation: m.Station, IssueCycle: now,
	}
	m.outQ.Push(out, now)
}

// busInterv queues an intervention asking local owner to supply its dirty
// copy; alsoProc (when >= 0) snarfs the response off the bus.
func (m *Module) busInterv(now int64, line uint64, owner, alsoProc int, ex bool) {
	m.Stats.Interventions.Inc()
	out := m.Msgs.Get()
	*out = msg.Message{
		Type: msg.BusIntervention, Line: line, Home: m.Station,
		SrcMod: m.g.ModMem(), DstMod: m.g.ModProc(owner),
		BusProcs: 1 << uint(owner), AlsoProc: alsoProc, Ex: ex,
		SrcStation: m.Station, DstStation: m.Station, IssueCycle: now,
	}
	m.outQ.Push(out, now)
}

// netInval queues the single invalidation multicast of §2.3. The mask
// always includes the requesting station and the home station; the packet
// ascends to the sequencing point of the lowest ring level covering the
// mask, then descends to every covered station.
func (m *Module) netInval(now int64, line uint64, mask topo.RoutingMask, id uint64) {
	if m.Mut == MutSkipNetInval {
		return
	}
	m.Stats.InvalidatesSent.Inc()
	out := m.Msgs.Get()
	*out = msg.Message{
		Type: msg.Invalidate, Line: line, Home: m.Station,
		SrcMod: m.g.ModMem(), DstMod: m.g.ModRI(),
		SrcStation: m.Station, DstStation: -1, Mask: mask,
		TxnID: id, IssueCycle: now,
	}
	m.outQ.Push(out, now)
}

func (m *Module) nak(now int64, x *msg.Message) {
	m.Stats.NAKs.Inc()
	if x.SrcStation == m.Station && m.g.IsProcMod(x.SrcMod) {
		m.toProc(now, msg.ProcNAK, x.SrcMod, x.Line, 0, x.Type)
		return
	}
	n := m.toStation(now, msg.NetNAK, x.SrcStation, x.Line, x)
	n.NakOf = x.Type
	n.TxnID = x.TxnID
}

// bounceOwnFalseRemote handles a Rem* request arriving from the very
// station the GI directory names as owner — even while the line is locked.
// The lock necessarily belongs to an intervention that the owner is about
// to NAK (its NC is busy refetching the line it lost to ejection), so
// answering with FalseRemoteResp immediately breaks the NAK livelock
// between the owner's refetch and other requesters' interventions.
func (m *Module) bounceOwnFalseRemote(e *entry, x *msg.Message, now int64) bool {
	if e.state != GI {
		return false
	}
	owner, ok := e.mask.Exact(m.g)
	if !ok || owner != x.SrcStation {
		return false
	}
	m.Stats.FalseRemotes.Inc()
	fr := m.toStation(now, msg.FalseRemoteResp, owner, x.Line, x)
	fr.NakOf = x.Type
	return true
}

func (m *Module) onlyBit(procs uint16, line uint64, now int64) int {
	for i := 0; i < 16; i++ {
		if procs == 1<<uint(i) {
			return i
		}
	}
	panic(fmt.Sprintf("memory[%d]: line %#x at cycle %d: processor mask %04b does not name exactly one owner",
		m.Station, line, now, procs))
}

func (m *Module) lock(e *entry, t *txn) {
	if e.locked {
		panic("memory: locking an already locked line")
	}
	e.locked = true
	e.txn = t
	m.locks++
}

func (m *Module) unlock(e *entry) {
	t := e.txn
	e.locked = false
	e.txn = nil
	m.locks--
	m.freeTxn(t)
}

// newTxn returns a zeroed transition record, recycling a freed one when
// available. Callers overwrite it wholesale (`*t = txn{...}`) so no field
// survives reuse.
func (m *Module) newTxn() *txn {
	if n := len(m.txnFree) - 1; n >= 0 {
		t := m.txnFree[n]
		m.txnFree[n] = nil
		m.txnFree = m.txnFree[:n]
		return t
	}
	return new(txn)
}

// freeTxn releases a completed transition record. Under msg.PoolDebug a
// double free panics at the second release, mirroring the message and
// packet pools' guard discipline.
func (m *Module) freeTxn(t *txn) {
	if t == nil {
		return
	}
	if msg.PoolDebug() {
		for _, q := range m.txnFree {
			if q == t {
				panic("memory: txn double free")
			}
		}
	}
	*t = txn{}
	m.txnFree = append(m.txnFree, t)
}

// remoteSharers reports whether the mask covers stations besides home.
// Bit math only — expanding the covered set here was the directory's one
// remaining per-call allocation.
func (m *Module) remoteSharers(mask topo.RoutingMask) bool {
	return mask.CoversOther(m.g, m.Station)
}

// ---- the Figure 5 state machine ----

func (m *Module) handle(x *msg.Message, now int64) {
	e := m.entry(x.Line)
	m.recordHist(x.Type, e)
	m.Stats.Transactions.Inc()
	if m.Tr != nil {
		st := int32(e.state)
		if e.locked {
			st |= 4
		}
		m.Tr.Emit(now, trace.KindMemTxn, x.Line, x.TxnID, int32(x.Type), st)
	}
	if m.p.TraceLine != 0 && x.Line == m.p.TraceLine {
		defer func() {
			fmt.Printf("%8d mem[%d] %-16s from st%d/mod%d req=%d -> %v locked=%v mask=%v procs=%04b data=%#x\n",
				now, m.Station, x.Type, x.SrcStation, x.SrcMod, x.Requester,
				e.state, e.locked, e.mask, e.procs, e.data)
		}()
	}

	switch x.Type {
	case msg.LocalRead:
		m.localRead(e, x, now)
	case msg.LocalReadEx, msg.LocalUpgd:
		m.localWrite(e, x, now)
	case msg.LocalWrBack:
		m.localWrBack(e, x, now)
	case msg.RemRead:
		m.remRead(e, x, now)
	case msg.RemReadEx:
		m.remReadEx(e, x, now, x.Type)
	case msg.RemUpgd:
		m.remUpgd(e, x, now)
	case msg.SpecialWrReq:
		m.specialWr(e, x, now)
	case msg.RemWrBack:
		m.remWrBack(e, x, now)
	case msg.Invalidate:
		m.invalReturn(e, x, now)
	case msg.IntervResp:
		m.intervResp(e, x, now)
	case msg.IntervMiss:
		m.intervMiss(e, x, now)
	case msg.NetData, msg.NetDataEx, msg.NetWBCopy:
		m.netDataArrival(e, x, now)
	case msg.NetXferDone:
		m.xferDone(e, x, now)
	case msg.NetIntervMiss:
		m.netIntervMiss(e, x, now)
	case msg.NetNAK:
		m.netNAKArrival(e, x, now)
	case msg.KillReq:
		m.kill(e, x, now)
	default:
		panic(fmt.Sprintf("memory[%d]: unexpected message %v", m.Station, x))
	}
}

func (m *Module) localRead(e *entry, x *msg.Message, now int64) {
	if e.locked {
		m.nak(now, x)
		return
	}
	req := x.SrcMod
	switch e.state {
	case LV, GV:
		m.toProc(now, msg.ProcData, req, x.Line, e.data, 0)
		e.procs |= 1 << uint(req)
	case LI:
		owner := m.onlyBit(e.procs, x.Line, now)
		if owner == req {
			// The recorded owner lost its copy; re-supply exclusively.
			m.toProc(now, msg.ProcDataEx, req, x.Line, e.data, 0)
			return
		}
		if m.Mut == MutStaleReadLI {
			m.toProc(now, msg.ProcData, req, x.Line, e.data, 0)
			return
		}
		t := m.newTxn()
		*t = txn{kind: msg.LocalRead, requester: x.Requester, reqStation: m.Station, id: m.nextTxn()}
		m.lock(e, t)
		m.busInterv(now, x.Line, owner, req, false)
	case GI:
		owner, ok := e.mask.Exact(m.g)
		if !ok || owner == m.Station {
			panic(fmt.Sprintf("memory[%d]: line %#x at cycle %d: GI with non-exact or local owner %v",
				m.Station, x.Line, now, e.mask))
		}
		t := m.newTxn()
		*t = txn{kind: msg.LocalRead, requester: x.Requester, reqStation: m.Station, id: m.nextTxn(),
			netInterv: true, ownerStation: owner}
		m.lock(e, t)
		iv := m.toStation(now, msg.NetIntervShared, owner, x.Line, nil)
		iv.Requester = x.Requester
		iv.ReqStation = m.Station
		iv.TxnID = t.id
	}
}

// localWrite handles LocalReadEx and LocalUpgd.
func (m *Module) localWrite(e *entry, x *msg.Message, now int64) {
	if e.locked {
		m.nak(now, x)
		return
	}
	req := x.SrcMod
	bit := uint16(1) << uint(req)
	upgd := x.Type == msg.LocalUpgd && e.procs&bit != 0
	grant := func() {
		if upgd {
			m.toProc(now, msg.ProcUpgdAck, req, x.Line, 0, 0)
		} else {
			m.toProc(now, msg.ProcDataEx, req, x.Line, e.data, 0)
		}
	}
	switch e.state {
	case LV:
		m.busInval(now, x.Line, e.procs&^bit)
		grant()
		e.procs = bit
		e.state = LI
	case LI:
		owner := m.onlyBit(e.procs, x.Line, now)
		if owner == req {
			// The directory says the requester already owns the line but it
			// re-requested it (an upgrade ack misfired and the copy was
			// lost): supply memory's data, which is the last globally
			// visible value.
			m.toProc(now, msg.ProcDataEx, req, x.Line, e.data, 0)
			return
		}
		t := m.newTxn()
		*t = txn{kind: msg.LocalReadEx, requester: x.Requester, reqStation: m.Station, id: m.nextTxn()}
		m.lock(e, t)
		m.busInterv(now, x.Line, owner, req, true)
		e.procs = bit // ownership will land on the requester
	case GV:
		if !m.remoteSharers(e.mask) {
			m.busInval(now, x.Line, e.procs&^bit)
			grant()
			e.procs = bit
			e.state = LI
			e.mask = m.homeMask()
			return
		}
		t := m.newTxn()
		*t = txn{kind: x.Type, requester: x.Requester, reqStation: m.Station,
			id: m.nextTxn(), waitInval: true, upgdAck: upgd}
		m.lock(e, t)
		m.busInval(now, x.Line, e.procs&^bit)
		m.netInval(now, x.Line, e.mask.Or(m.homeMask()), t.id)
		if !m.p.SCLocking {
			grant()
			t.granted = true
		}
		e.procs = bit
	case GI:
		owner, _ := e.mask.Exact(m.g)
		t := m.newTxn()
		*t = txn{kind: msg.LocalReadEx, requester: x.Requester, reqStation: m.Station, id: m.nextTxn(),
			netInterv: true, ownerStation: owner}
		m.lock(e, t)
		iv := m.toStation(now, msg.NetIntervEx, owner, x.Line, nil)
		iv.Requester = x.Requester
		iv.ReqStation = m.Station
		iv.TxnID = t.id
	}
}

func (m *Module) localWrBack(e *entry, x *msg.Message, now int64) {
	bit := uint16(1) << uint(x.SrcMod)
	if e.locked {
		e.txn.wbSeen = true
		e.txn.wbData = x.Data
		e.txn.wbProc = x.SrcMod
		e.txn.wbStation = -1
		e.procs &^= bit
		if e.txn.missSeen {
			m.completeAfterMiss(e, x.Line, now)
		}
		return
	}
	e.data = x.Data
	e.procs &^= bit
	if e.state == LI {
		e.state = LV
	}
}

func (m *Module) remRead(e *entry, x *msg.Message, now int64) {
	if m.bounceOwnFalseRemote(e, x, now) {
		return
	}
	if e.locked {
		m.nak(now, x)
		return
	}
	src := x.SrcStation
	switch e.state {
	case LV, GV:
		d := m.toStation(now, msg.NetData, src, x.Line, x)
		d.Data, d.HasData = e.data, true
		e.mask = e.mask.Or(m.g.MaskFor(src)).Or(m.homeMask())
		e.state = GV
	case LI:
		owner := m.onlyBit(e.procs, x.Line, now)
		t := m.newTxn()
		*t = txn{kind: msg.RemRead, requester: -1, reqStation: src, id: m.nextTxn()}
		m.lock(e, t)
		m.busInterv(now, x.Line, owner, -1, false)
	case GI:
		owner, _ := e.mask.Exact(m.g)
		t := m.newTxn()
		*t = txn{kind: msg.RemRead, requester: -1, reqStation: src, id: m.nextTxn(),
			netInterv: true, ownerStation: owner}
		m.lock(e, t)
		iv := m.toStation(now, msg.NetIntervShared, owner, x.Line, nil)
		iv.Requester = -1
		iv.ReqStation = src
		iv.TxnID = t.id
	}
}

func (m *Module) remReadEx(e *entry, x *msg.Message, now int64, kind msg.Type) {
	if m.bounceOwnFalseRemote(e, x, now) {
		return
	}
	if e.locked {
		m.nak(now, x)
		return
	}
	src := x.SrcStation
	switch e.state {
	case LV, GV:
		if m.Mut == MutNoLockRemReadEx {
			d := m.toStation(now, msg.NetDataEx, src, x.Line, x)
			d.Data, d.HasData = e.data, true
			e.procs = 0
			return
		}
		// Data first, then the invalidation multicast: the ring hierarchy
		// guarantees the data reaches the writer before the invalidation
		// (§2.3, Figure 7). The data response carries the home transaction
		// id so the writer's NC can recognize the invalidation when it
		// arrives.
		t := m.newTxn()
		*t = txn{kind: msg.RemReadEx, requester: -1, reqStation: src, id: m.nextTxn(), waitInval: true, granted: true}
		d := m.toStation(now, msg.NetDataEx, src, x.Line, x)
		d.Data, d.HasData, d.InvalFollows = e.data, true, true
		d.TxnID = t.id
		m.busInval(now, x.Line, e.procs)
		m.lock(e, t)
		m.netInval(now, x.Line, e.mask.Or(m.g.MaskFor(src)).Or(m.homeMask()), t.id)
		e.procs = 0
	case LI:
		owner := m.onlyBit(e.procs, x.Line, now)
		t := m.newTxn()
		*t = txn{kind: msg.RemReadEx, requester: -1, reqStation: src, id: m.nextTxn()}
		m.lock(e, t)
		m.busInterv(now, x.Line, owner, -1, true)
		e.procs = 0
	case GI:
		owner, _ := e.mask.Exact(m.g)
		t := m.newTxn()
		*t = txn{kind: msg.RemReadEx, requester: -1, reqStation: src, id: m.nextTxn(),
			netInterv: true, ownerStation: owner}
		m.lock(e, t)
		iv := m.toStation(now, msg.NetIntervEx, owner, x.Line, nil)
		iv.Requester = -1
		iv.ReqStation = src
		iv.TxnID = t.id
	}
}

func (m *Module) remUpgd(e *entry, x *msg.Message, now int64) {
	if m.bounceOwnFalseRemote(e, x, now) {
		return
	}
	if e.locked {
		m.nak(now, x)
		return
	}
	src := x.SrcStation
	if e.state == GV && e.mask.Contains(m.g, src) && m.p.OptimisticUpgrades {
		// Optimistic: the (possibly inexact) mask says the requester still
		// has a valid copy, so answer with an acknowledgement only (§2.3).
		m.Stats.OptimisticAcks.Inc()
		t := m.newTxn()
		*t = txn{kind: msg.RemUpgd, requester: -1, reqStation: src, id: m.nextTxn(), waitInval: true, granted: true}
		a := m.toStation(now, msg.NetUpgdAck, src, x.Line, x)
		a.InvalFollows = true
		a.TxnID = t.id
		m.busInval(now, x.Line, e.procs)
		m.lock(e, t)
		m.netInval(now, x.Line, e.mask.Or(m.g.MaskFor(src)).Or(m.homeMask()), t.id)
		e.procs = 0
		return
	}
	// The requester's copy was invalidated before the upgrade arrived (or
	// the line is not shared): data must travel.
	m.Stats.UpgradeDataSends.Inc()
	m.remReadEx(e, x, now, msg.RemUpgd)
}

func (m *Module) specialWr(e *entry, x *msg.Message, now int64) {
	if e.locked {
		m.nak(now, x)
		return
	}
	m.Stats.SpecialWrServed.Inc()
	if e.state == GI {
		if owner, _ := e.mask.Exact(m.g); owner == x.SrcStation {
			// Ownership was already granted by the optimistic ack; DRAM
			// still holds the last globally-visible value (§4.6).
			d := m.toStation(now, msg.NetDataEx, x.SrcStation, x.Line, x)
			d.Data, d.HasData = e.data, true
			return
		}
	}
	// Defensive: fall back to a normal exclusive read.
	m.remReadEx(e, x, now, msg.SpecialWrReq)
}

func (m *Module) remWrBack(e *entry, x *msg.Message, now int64) {
	if e.locked {
		t := e.txn
		// While locked, a write-back can only legitimately come from the
		// station a network intervention targeted or from a writer the
		// transition already granted; and at most once. Anything else is
		// a stale or replayed message (fault injection duplicates ring
		// traffic) whose data must not enter the transition.
		fromOwner := t.netInterv && x.SrcStation == t.ownerStation
		fromWriter := t.granted && x.SrcStation == t.reqStation
		if (!fromOwner && !fromWriter) || t.wbSeen {
			return
		}
		t.wbSeen = true
		t.wbData = x.Data
		t.wbProc = -1
		t.wbStation = x.SrcStation
		if t.missSeen {
			m.completeAfterMiss(e, x.Line, now)
		}
		return
	}
	e.data = x.Data
	// Figure 5: GI -> GV on RemWrBack. The ejecting station's processors
	// may retain shared copies (inclusion is not enforced), so keep it in
	// the mask.
	e.state = GV
	if m.Mut == MutFlipGIGV {
		e.state = GI
	}
	e.mask = e.mask.Or(m.g.MaskFor(x.SrcStation)).Or(m.homeMask())
}

// invalReturn: our own invalidation multicast came back to the home
// station, which unlocks the line and finalizes the transition (§2.3).
func (m *Module) invalReturn(e *entry, x *msg.Message, now int64) {
	if !e.locked || e.txn == nil || e.txn.id != x.TxnID {
		// An invalidation for a line this memory no longer has locked can
		// only be a stale duplicate; ignore it.
		return
	}
	t := e.txn
	switch t.kind {
	case msg.LocalReadEx, msg.LocalUpgd:
		if !t.granted {
			if t.upgdAck {
				m.toProc(now, msg.ProcUpgdAck, m.g.LocalProc(t.requester), x.Line, 0, 0)
			} else {
				m.toProc(now, msg.ProcDataEx, m.g.LocalProc(t.requester), x.Line, e.data, 0)
			}
		}
		if t.granted && t.wbSeen && t.wbProc == m.g.LocalProc(t.requester) {
			// The writer was granted early (no-SC-locking mode) and already
			// evicted its dirty line while the invalidation was in flight:
			// the write-back data is current and nobody holds a copy.
			e.data = t.wbData
			e.state = LV
			e.mask = m.homeMask()
			e.procs = 0
			break
		}
		e.state = LI
		e.mask = m.homeMask()
		e.procs = 1 << uint(m.g.LocalProc(t.requester))
	case msg.RemReadEx, msg.RemUpgd:
		if t.granted && t.wbSeen && t.wbStation == t.reqStation {
			// The remote writer's NC already ejected and wrote the line
			// back while the invalidation was in flight.
			e.data = t.wbData
			e.state = GV
			e.mask = m.g.MaskFor(t.reqStation).Or(m.homeMask())
			e.procs = 0
			break
		}
		e.state = GI
		e.mask = m.g.MaskFor(t.reqStation)
		e.procs = 0
	case msg.KillReq:
		e.state = LV
		e.mask = m.homeMask()
		e.procs = 0
		m.killDone(t, x.Line, now)
	default:
		panic(fmt.Sprintf("memory[%d]: invalidation return for unexpected txn %v", m.Station, t.kind))
	}
	m.unlock(e)
}

// intervResp: a local secondary cache supplied its dirty copy.
func (m *Module) intervResp(e *entry, x *msg.Message, now int64) {
	if !e.locked || e.txn == nil {
		// The line was already completed via a racing write-back.
		e.data = x.Data
		return
	}
	t := e.txn
	switch t.kind {
	case msg.LocalRead:
		e.data = x.Data
		e.procs |= 1 << uint(m.g.LocalProc(t.requester))
		e.state = LV
	case msg.LocalReadEx:
		// Requester snarfed the data from the bus; ownership moved.
		e.procs = 1 << uint(m.g.LocalProc(t.requester))
		e.state = LI
	case msg.RemRead:
		e.data = x.Data
		d := m.toStation(now, msg.NetData, t.reqStation, x.Line, nil)
		d.Data, d.HasData, d.TxnID = e.data, true, t.id
		e.mask = e.mask.Or(m.g.MaskFor(t.reqStation)).Or(m.homeMask())
		e.state = GV
	case msg.RemReadEx:
		d := m.toStation(now, msg.NetDataEx, t.reqStation, x.Line, nil)
		d.Data, d.HasData, d.TxnID = x.Data, true, t.id
		e.mask = m.g.MaskFor(t.reqStation)
		if m.Mut == MutWrongOwnerMask {
			e.mask = m.homeMask()
		}
		e.procs = 0
		e.state = GI
	case msg.KillReq:
		e.data = x.Data
		e.state = LV
		e.procs = 0
		e.mask = m.homeMask()
		m.killDone(t, x.Line, now)
	default:
		panic(fmt.Sprintf("memory[%d]: intervention response for txn %v", m.Station, t.kind))
	}
	m.unlock(e)
}

// intervMiss: the targeted cache no longer holds the line; its write-back
// either already arrived (wbSeen) or is still in flight.
func (m *Module) intervMiss(e *entry, x *msg.Message, now int64) {
	if !e.locked || e.txn == nil {
		return
	}
	e.txn.missSeen = true
	if e.txn.wbSeen {
		m.completeAfterMiss(e, x.Line, now)
	}
}

// netIntervMiss: a remote NC no longer holds the line we thought it owned.
func (m *Module) netIntervMiss(e *entry, x *msg.Message, now int64) {
	if !e.locked || e.txn == nil || e.txn.id != x.TxnID || e.txn.missSeen {
		return
	}
	e.txn.missSeen = true
	if e.txn.wbSeen {
		m.completeAfterMiss(e, x.Line, now)
	}
}

// completeAfterMiss finishes a transition using written-back data after the
// intervention target reported a miss. The old owner station may retain
// stale shared copies in its secondary caches (the write-back came from an
// NC ejection that does not enforce inclusion), so it must stay in the
// sharing mask for shared grants, and exclusive grants must invalidate it
// with a sequenced multicast before the line unlocks.
func (m *Module) completeAfterMiss(e *entry, line uint64, now int64) {
	t := e.txn
	e.data = t.wbData
	oldMask := e.mask
	switch t.kind {
	case msg.LocalRead:
		m.toProc(now, msg.ProcData, m.g.LocalProc(t.requester), line, e.data, 0)
		e.procs |= 1 << uint(m.g.LocalProc(t.requester))
		e.state = GV
		e.mask = oldMask.Or(m.homeMask())
	case msg.RemRead:
		d := m.toStation(now, msg.NetData, t.reqStation, line, nil)
		d.Data, d.HasData, d.TxnID = e.data, true, t.id
		e.mask = oldMask.Or(m.g.MaskFor(t.reqStation)).Or(m.homeMask())
		e.state = GV
	case msg.LocalReadEx:
		if !m.p.SCLocking {
			m.toProc(now, msg.ProcDataEx, m.g.LocalProc(t.requester), line, e.data, 0)
			t.granted = true
		}
		t.waitInval = true
		m.netInval(now, line, oldMask.Or(m.homeMask()), t.id)
		return // stays locked until the invalidation returns
	case msg.RemReadEx:
		d := m.toStation(now, msg.NetDataEx, t.reqStation, line, nil)
		d.Data, d.HasData, d.TxnID = e.data, true, t.id
		d.InvalFollows = true
		t.granted = true
		t.waitInval = true
		m.netInval(now, line, oldMask.Or(m.g.MaskFor(t.reqStation)).Or(m.homeMask()), t.id)
		return
	case msg.KillReq:
		t.waitInval = true
		m.netInval(now, line, oldMask.Or(m.homeMask()), t.id)
		return
	default:
		panic(fmt.Sprintf("memory[%d]: completeAfterMiss for txn %v", m.Station, t.kind))
	}
	m.unlock(e)
}

// netDataArrival: data returned from a remote owner (recall to home or a
// shared-intervention copy travelling home).
func (m *Module) netDataArrival(e *entry, x *msg.Message, now int64) {
	if !e.locked || e.txn == nil {
		// A WBCopy for an already-completed transition still refreshes DRAM.
		if x.Type == msg.NetWBCopy {
			e.data = x.Data
		}
		return
	}
	if e.txn.id != x.TxnID {
		// Data for an older transaction on this line (a timeout re-issue
		// can leave two responses in flight); the current transition must
		// wait for its own.
		return
	}
	t := e.txn
	switch t.kind {
	case msg.LocalRead: // NetData from owner NC (shared recall)
		e.data = x.Data
		m.toProc(now, msg.ProcData, m.g.LocalProc(t.requester), x.Line, e.data, 0)
		e.procs |= 1 << uint(m.g.LocalProc(t.requester))
		e.state = GV
		e.mask = e.mask.Or(m.homeMask())
	case msg.LocalReadEx: // NetDataEx from owner NC (exclusive recall)
		m.toProc(now, msg.ProcDataEx, m.g.LocalProc(t.requester), x.Line, x.Data, 0)
		e.procs = 1 << uint(m.g.LocalProc(t.requester))
		e.state = LI
		e.mask = m.homeMask()
	case msg.RemRead: // NetWBCopy: owner served the requester; copy lands home
		e.data = x.Data
		e.mask = e.mask.Or(m.g.MaskFor(t.reqStation)).Or(m.homeMask())
		e.state = GV
	case msg.KillReq: // NetDataEx recalled from the remote owner
		e.data = x.Data
		e.state = LV
		e.procs = 0
		e.mask = m.homeMask()
		m.killDone(t, x.Line, now)
	default:
		panic(fmt.Sprintf("memory[%d]: network data for txn %v", m.Station, t.kind))
	}
	m.unlock(e)
}

// xferDone: the previous owner confirmed an exclusive ownership transfer.
func (m *Module) xferDone(e *entry, x *msg.Message, now int64) {
	if !e.locked || e.txn == nil || e.txn.id != x.TxnID {
		return
	}
	t := e.txn
	e.state = GI
	e.mask = m.g.MaskFor(t.reqStation)
	e.procs = 0
	m.unlock(e)
}

// netNAKArrival: a remote NC refused our intervention because the line was
// locked there; abort and NAK the original requester so it retries.
func (m *Module) netNAKArrival(e *entry, x *msg.Message, now int64) {
	if !e.locked || e.txn == nil || e.txn.id != x.TxnID {
		return
	}
	t := e.txn
	if t.reqStation == m.Station && t.requester >= 0 {
		m.toProc(now, msg.ProcNAK, m.g.LocalProc(t.requester), x.Line, 0, t.kind)
	} else {
		n := m.toStation(now, msg.NetNAK, t.reqStation, x.Line, nil)
		n.NakOf = t.kind
	}
	m.Stats.NAKs.Inc()
	m.unlock(e)
}

// kill implements the special function purging all cached copies of a line
// (§3.1.2 / §3.2); completion is signalled with an interrupt to the
// requesting processor.
func (m *Module) kill(e *entry, x *msg.Message, now int64) {
	if e.locked {
		m.nak(now, x)
		return
	}
	t := m.newTxn()
	*t = txn{kind: msg.KillReq, requester: x.Requester, reqStation: x.ReqStation, id: m.nextTxn()}
	switch e.state {
	case LV:
		m.busInval(now, x.Line, e.procs)
		e.procs = 0
		m.killDone(t, x.Line, now)
		m.freeTxn(t) // completed without locking
	case GV:
		m.busInval(now, x.Line, e.procs)
		e.procs = 0
		if m.remoteSharers(e.mask) {
			t.waitInval = true
			m.lock(e, t)
			m.netInval(now, x.Line, e.mask.Or(m.homeMask()), t.id)
		} else {
			e.state = LV
			e.mask = m.homeMask()
			m.killDone(t, x.Line, now)
			m.freeTxn(t) // completed without locking
		}
	case LI:
		owner := m.onlyBit(e.procs, x.Line, now)
		m.lock(e, t)
		m.busInterv(now, x.Line, owner, -1, true)
		e.procs = 0
	case GI:
		owner, _ := e.mask.Exact(m.g)
		t.netInterv, t.ownerStation = true, owner
		m.lock(e, t)
		iv := m.toStation(now, msg.NetIntervEx, owner, x.Line, nil)
		iv.Requester = t.requester
		iv.ReqStation = m.Station
		iv.TxnID = t.id
		// Completion arrives as NetDataEx handled in netDataArrival; route
		// it through the kill-specific completion by tagging the txn kind.
	}
}

// killDone sends the completion interrupt for a kill special function.
func (m *Module) killDone(t *txn, line uint64, now int64) {
	if t.requester < 0 {
		return
	}
	if t.reqStation == m.Station {
		out := m.Msgs.Get()
		*out = msg.Message{
			Type: msg.NetInterrupt, Line: line, Home: m.Station,
			SrcMod: m.g.ModMem(), DstMod: m.g.ModProc(m.g.LocalProc(t.requester)),
			BusProcs:   1 << uint(m.g.LocalProc(t.requester)),
			SrcStation: m.Station, DstStation: m.Station, IssueCycle: now,
		}
		m.outQ.Push(out, now)
		return
	}
	it := m.toStation(now, msg.NetInterrupt, t.reqStation, line, nil)
	it.BusProcs = 1 << uint(m.g.LocalProc(t.requester))
}

// Package netcache implements the NUMAchine network cache (§3.1.4): a
// large, direct-mapped, DRAM-based tertiary cache shared by the processors
// of a station, caching lines whose home memory is remote. It implements
// the NC side of the two-level coherence protocol — the state machine of
// Figure 6 with states NotIn, LV, LI, GV and GI plus locked versions — and
// the four NC effects measured in §4.5: migration, caching, combining and
// coherence localization, plus the false-remote-request recovery of §4.6.
//
// Concurrency contract: like the memory module, the NC is unsynchronized
// and ticked by the machine's single-threaded cycle loop; Tick reads its
// own input queue and writes its own outbound bus queue only.
package netcache

import (
	"fmt"

	"numachine/internal/fault"
	"numachine/internal/memory"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// Alias the directory states; the NC uses the same four states as memory,
// with "NotIn" represented by an invalid entry.
const (
	LV = memory.LV
	LI = memory.LI
	GV = memory.GV
	GI = memory.GI
)

type txnKind uint8

const (
	txnFetch       txnKind = iota // remote request outstanding at the home memory
	txnLocalInterv                // serving a local request at LI via bus intervention
	txnNetServe                   // serving the home memory's network intervention
	txnRecover                    // false-remote recovery: broadcast intervention
)

// txn tracks the work a locked entry is waiting on.
type txn struct {
	kind     txnKind
	origType msg.Type // the request that started it

	// Local requester (fetch / local intervention / recovery).
	reqProc int  // local processor index, -1 if none
	home    int  // home station of the line (for re-issues and recovery)
	upgdAck bool // grant without data (requester holds a valid copy)

	// Remote fetch completion tracking.
	needInval       bool
	dataSeen        bool
	ackSeen         bool
	invalSeen       bool
	granted         bool
	dataInvalidated bool // a foreign invalidation killed our copy mid-upgrade
	expectInvalID   uint64
	data            uint64
	retryAt         int64 // when > 0, re-issue retryType at this cycle
	retryType       msg.Type
	retryIsTimeout  bool // the scheduled re-issue recovers a lost request
	nakStreak       int  // consecutive NAKs for the exponential back-off

	// Network intervention service / recovery.
	netTxnID   uint64
	reqStation int
	ex         bool
	pending    int // outstanding bus intervention responses (broadcast)
	wbSeen     bool
	wbData     uint64
}

// entry is one NC line: tag, state, local processor mask and data.
type entry struct {
	valid bool
	line  uint64
	home  int // home station of the line
	state memory.DirState
	procs uint16
	data  uint64

	locked bool
	txn    *txn

	broughtBy int // processor whose miss allocated the entry (hit classification)
}

// Stats aggregates the NC monitoring hardware, feeding Figures 15 and 16
// and Table 3.
type Stats struct {
	Requests        monitor.Counter // non-retry processor requests
	HitsMigration   monitor.Counter // hits by a processor other than the fetcher
	HitsCaching     monitor.Counter // hits by the fetching processor (L2 victim reuse)
	LocalInterv     monitor.Counter // requests served by a local dirty copy
	Combined        monitor.Counter // requests masked out by a pending same-line fetch
	Conflicts       monitor.Counter // NAKs due to set conflicts with a locked entry
	RemoteFetches   monitor.Counter // requests that had to go to the home memory
	Retries         monitor.Counter // re-issued processor requests (excluded from rates)
	NetNAKRetries   monitor.Counter // our remote requests NAK'ed by a locked home line
	TimeoutReissues monitor.Counter // fetch requests re-issued after a loss timeout
	FalseRemotes    monitor.Counter // recoveries after ejection lost directory info
	SpecialWrReqs   monitor.Counter // optimistic upgrade misfires (§4.6)
	Prefetches      monitor.Counter // background fetch hints (§3.1.4)
	Ejections       monitor.Counter
	EjectWrBacks    monitor.Counter // LV ejections written back to home
	EjectLISilent   monitor.Counter // LI ejections dropping directory info (Table 3 source)
	Hist            *monitor.Table
}

// HistRows and HistCols label the NC coherence histogram.
var (
	HistRows = []string{"LocalRead", "LocalReadEx", "LocalUpgd", "LocalWrBack",
		"NetIntervShared", "NetIntervEx", "Invalidate"}
	HistCols = []string{"NotIn", "LV", "LI", "GV", "GI", "LV*", "LI*", "GV*", "GI*"}
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
	case msg.NetIntervShared:
		return 4
	case msg.NetIntervEx:
		return 5
	case msg.Invalidate:
		return 6
	}
	return -1
}

// Module is one station's network cache.
type Module struct {
	Station int

	g topo.Geometry
	p sim.Params

	entries []entry
	// sideTxns holds intervention/recovery work for lines with no entry
	// (the NC must still serve interventions after ejecting a line).
	sideTxns map[uint64]*txn

	inQ    *sim.Queue[*msg.Message]
	outQ   *sim.Queue[*msg.Message]
	busy   int64
	staged *msg.Message // dequeued message being processed until busy

	// retryLines tracks locked lines with a scheduled retry.
	retryLines []uint64

	// txnFree recycles per-transaction state: entry txns die when the
	// entry unlocks (clearTxn), side-table txns when their line leaves
	// sideTxns (dropSide), so steady state allocates none. Single-owner,
	// plain LIFO, pointers never compared — same discipline as the memory
	// module's pool.
	txnFree []*txn

	// retryRNG draws the deterministic back-off jitter for this NC's
	// re-issues; it is consumed only while handling a NetNAK (a real-work
	// event every cycle loop executes identically), never from idle ticks.
	retryRNG sim.RNG

	// Fault, when non-nil, freezes the directory pipeline during the
	// injector's outage windows. FetchTimeout, when > 0, re-issues an
	// unanswered fetch request after that many cycles — the sender-side
	// recovery for request packets the injector drops in the network.
	Fault        *fault.Comp
	FetchTimeout int64

	// Tr is the structured-event trace sink (nil when tracing is off).
	Tr *trace.Sink

	// RetryChoice, when non-nil, overrides retryDelay: the model checker
	// installs it to turn NAK retry timing into an explored choice point.
	RetryChoice func(nakStreak int, base int64) int64

	// Msgs recycles consumed and constructed messages (nil-safe; wired by
	// core, shared per station).
	Msgs *msg.MessagePool

	Stats Stats
}

// New builds the network cache for a station.
func New(g topo.Geometry, p sim.Params, station int) *Module {
	n := &Module{
		Station:  station,
		g:        g,
		p:        p,
		entries:  make([]entry, p.NCLines),
		sideTxns: make(map[uint64]*txn),
		inQ:      sim.NewQueue[*msg.Message](0),
		outQ:     sim.NewQueue[*msg.Message](0),
		Stats:    Stats{Hist: monitor.NewTable(fmt.Sprintf("netcache[%d] coherence histogram", station), HistRows, HistCols)},
	}
	// Observed at the top of Tick, after same-cycle bus deliveries (the bus
	// phase precedes the NC phase), hence prePush=false.
	n.inQ.MonitorEvery(32, false)
	// Seed unconditionally: the zero xorshift state would be degenerate.
	// The constant tags the stream so NC jitter never collides with the
	// per-CPU streams derived from the same RetryJitterSeed.
	n.retryRNG = *sim.NewRNG(p.RetryJitterSeed ^ 0x6e65746361636865 ^
		(0x9e3779b97f4a7c15 * (uint64(station) + 1)))
	return n
}

// BusOut implements bus.Module.
func (n *Module) BusOut() *sim.Queue[*msg.Message] { return n.outQ }

// BusDeliver implements bus.Module.
func (n *Module) BusDeliver(x *msg.Message, now int64) {
	n.inQ.Push(x, now)
	n.Tr.Emit(now, trace.KindQueueDepth, 0, 0, int32(n.inQ.Len()), 0)
}

// Idle reports whether the module has no queued, in-flight or pending work.
func (n *Module) Idle() bool {
	return n.inQ.Empty() && n.outQ.Empty() && n.staged == nil &&
		len(n.sideTxns) == 0 && len(n.retryLines) == 0
}

// newTxn returns a zeroed transaction record, recycling a freed one when
// available. Callers overwrite it wholesale (`*t = txn{...}`).
func (n *Module) newTxn() *txn {
	if i := len(n.txnFree) - 1; i >= 0 {
		t := n.txnFree[i]
		n.txnFree[i] = nil
		n.txnFree = n.txnFree[:i]
		return t
	}
	return new(txn)
}

// freeTxn releases a completed transaction record. Under msg.PoolDebug a
// double free panics at the second release, mirroring the message and
// packet pools' guard discipline.
func (n *Module) freeTxn(t *txn) {
	if t == nil {
		return
	}
	if msg.PoolDebug() {
		for _, q := range n.txnFree {
			if q == t {
				panic("netcache: txn double free")
			}
		}
	}
	*t = txn{}
	n.txnFree = append(n.txnFree, t)
}

// clearTxn unlocks the entry and frees its transaction — the single death
// point for entry transactions (txnRecover conversions reuse theirs in
// place instead).
func (n *Module) clearTxn(e *entry) {
	t := e.txn
	e.locked, e.txn = false, nil
	n.freeTxn(t)
}

// dropSide removes the line's side-table transaction and frees it.
func (n *Module) dropSide(line uint64) {
	t := n.sideTxns[line]
	delete(n.sideTxns, line)
	n.freeTxn(t)
}

func (n *Module) slot(line uint64) *entry {
	return &n.entries[(line/uint64(n.p.LineSize))%uint64(len(n.entries))]
}

// lookup returns the entry for line, or nil when NotIn.
func (n *Module) lookup(line uint64) *entry {
	e := n.slot(line)
	if e.valid && e.line == line {
		return e
	}
	return nil
}

// TxnInfo describes the pending transaction on a line (diagnostics).
func (n *Module) TxnInfo(line uint64) string {
	e := n.lookup(line)
	if e == nil || e.txn == nil {
		if t := n.sideTxns[line]; t != nil {
			return fmt.Sprintf("side{kind=%d orig=%v pending=%d wb=%v data=%v}",
				t.kind, t.origType, t.pending, t.wbSeen, t.dataSeen)
		}
		return "none"
	}
	t := e.txn
	return fmt.Sprintf("txn{kind=%d orig=%v req=%d pending=%d data=%v ack=%v inval=%v need=%v granted=%v retryAt=%d wb=%v}",
		t.kind, t.origType, t.reqProc, t.pending, t.dataSeen, t.ackSeen, t.invalSeen, t.needInval, t.granted, t.retryAt, t.wbSeen)
}

// Peek exposes NC state for tests and the invariant checker. ok is false
// when the line is NotIn.
func (n *Module) Peek(line uint64) (state memory.DirState, locked bool, procs uint16, data uint64, ok bool) {
	e := n.lookup(line)
	if e == nil {
		return 0, false, 0, 0, false
	}
	return e.state, e.locked, e.procs, e.data, true
}

func (n *Module) recordHist(t msg.Type, e *entry) {
	r := histRow(t)
	if r < 0 {
		return
	}
	c := 0
	if e != nil {
		c = 1 + int(e.state)
		if e.locked {
			c += 4
		}
	}
	n.Stats.Hist.Add(r, c)
}

// NextWork reports the earliest cycle at or after now at which Tick can do
// more than occupancy sampling: the earliest scheduled NAK retry, the end
// of the current SRAM/DRAM access when a message is staged, or now when
// input is queued. A stale retryLines entry (its transaction already
// completed) forces now so Tick prunes it exactly when the naive loop
// would, keeping Idle() and drain semantics identical.
func (n *Module) NextWork(now int64) int64 {
	wake := sim.Never
	for _, line := range n.retryLines {
		e := n.lookup(line)
		if e == nil || !e.locked || e.txn == nil || e.txn.retryAt == 0 {
			return n.Fault.NextFree(now) // stale entry: fireRetries must drop it this cycle
		}
		if e.txn.retryAt < wake {
			wake = e.txn.retryAt
		}
	}
	if n.staged != nil || !n.inQ.Empty() {
		if now < n.busy {
			if n.busy < wake {
				wake = n.busy
			}
		} else {
			return n.Fault.NextFree(now)
		}
	}
	return n.Fault.NextFree(wake)
}

// SyncStats brings the input-queue occupancy sampling up to date through
// limit (called before snapshotting results).
func (n *Module) SyncStats(limit int64) { n.inQ.SyncObsTo(limit) }

// InQStats exposes the input-queue statistics (diagnostics).
func (n *Module) InQStats() sim.QueueStats { return n.inQ.Stats() }

// InQDepth returns the current input-queue depth (diagnostics).
func (n *Module) InQDepth() int { return n.inQ.Len() }

// Tick processes the input queue (a message takes effect after its
// SRAM/DRAM access time) and fires due retries.
func (n *Module) Tick(now int64) {
	n.inQ.ObserveAt(now)
	if n.Fault.Stalled(now) {
		return // injected outage: the directory pipeline is frozen
	}
	n.fireRetries(now)
	if now < n.busy {
		return
	}
	if n.staged != nil {
		x := n.staged
		n.staged = nil
		n.handle(x, now)
		// Single-owner after handling, as in memory.Module.Tick.
		n.Msgs.Put(x)
	}
	x, ok := n.inQ.Pop(now)
	if !ok {
		return
	}
	n.Tr.Emit(now, trace.KindQueueDepth, 0, 0, int32(n.inQ.Len()), 0)
	cost := n.p.NCDirCycles
	if x.Type.CarriesData() || x.Type == msg.LocalRead || x.Type == msg.LocalReadEx {
		cost += n.p.NCDRAMCycles
	}
	n.busy = now + int64(cost)
	n.staged = x
}

func (n *Module) fireRetries(now int64) {
	if len(n.retryLines) == 0 {
		return
	}
	// sendHome re-arms the loss timeout through armRetry, which appends to
	// n.retryLines; detach the slice first so the in-place filter below
	// never races the appends, then merge the re-armed lines back in.
	old := n.retryLines
	n.retryLines = nil
	kept := old[:0]
	for _, line := range old {
		e := n.lookup(line)
		if e == nil || !e.locked || e.txn == nil || e.txn.retryAt == 0 {
			continue
		}
		if e.txn.retryAt > now {
			kept = append(kept, line)
			continue
		}
		t := e.txn
		t.retryAt = 0
		if t.retryIsTimeout {
			t.retryIsTimeout = false
			n.Stats.TimeoutReissues.Inc()
		} else {
			n.Stats.NetNAKRetries.Inc()
		}
		n.sendHome(now, t.retryType, line, t)
	}
	n.retryLines = append(kept, n.retryLines...)
}

// armRetry schedules a re-issue of the txn's request at cycle at. The line
// enters retryLines only when no re-issue was armed yet, so a NetNAK
// overwriting a pending loss timeout (or vice versa) never duplicates the
// entry.
func (n *Module) armRetry(line uint64, t *txn, at int64, timeout bool) {
	if t.retryAt == 0 {
		n.retryLines = append(n.retryLines, line)
	}
	t.retryAt = at
	t.retryIsTimeout = timeout
}

// retryDelay computes the back-off before re-issuing a NAK'ed request.
// With RetryBackoff off it is the fixed RetryDelay; with it on, the delay
// doubles per consecutive NAK up to RetryMaxDelay plus a deterministic
// jitter drawn from this NC's seeded stream.
func (n *Module) retryDelay(t *txn) int64 {
	d := int64(n.p.RetryDelay)
	if n.RetryChoice != nil {
		return n.RetryChoice(t.nakStreak, d)
	}
	if !n.p.RetryBackoff {
		return d
	}
	shift := t.nakStreak
	if shift > 16 {
		shift = 16
	}
	d <<= uint(shift)
	if max := int64(n.p.RetryMaxDelay); max > 0 && d > max {
		d = max
	}
	if d > 1 {
		d += int64(n.retryRNG.Intn(int(d/2) + 1))
	}
	return d
}

// ---- output helpers ----

func (n *Module) homeOf(x *msg.Message) int { return x.Home }

func (n *Module) toProc(now int64, t msg.Type, localProc int, line uint64, data uint64, nakOf msg.Type) {
	out := n.Msgs.Get()
	*out = msg.Message{
		Type: t, Line: line, Home: -1,
		SrcMod: n.g.ModNC(), DstMod: n.g.ModProc(localProc),
		SrcStation: n.Station, DstStation: n.Station,
		Data: data, HasData: t.CarriesData(), NakOf: nakOf, IssueCycle: now,
	}
	n.outQ.Push(out, now)
}

// toNet queues a network message. home is the line's home station.
func (n *Module) toNet(now int64, t msg.Type, dst, home int, line uint64) *msg.Message {
	out := n.Msgs.Get()
	*out = msg.Message{
		Type: t, Line: line, Home: home,
		SrcMod: n.g.ModNC(), DstMod: n.g.ModRI(),
		SrcStation: n.Station, DstStation: dst,
		IssueCycle: now,
	}
	n.outQ.Push(out, now)
	return out
}

// sendHome (re-)issues a request for a locked fetch txn. When a loss
// timeout is configured, every outbound fetch request arms (or re-arms) a
// re-issue: if the request is dropped in the network, the timeout fires
// and the request goes out again; if an answer arrives first, the handler
// cancels the timeout.
func (n *Module) sendHome(now int64, t msg.Type, line uint64, tx *txn) {
	m := n.toNet(now, t, tx.home, tx.home, line)
	m.Requester = tx.reqProc
	m.ReqStation = n.Station
	// Arm only for the types the injector can drop: a spurious re-issue
	// of an undroppable request (RemUpgd, SpecialWrReq) after a merely
	// slow response has no recovery analysis behind it, and those types
	// can never be lost.
	if n.FetchTimeout > 0 && tx.kind == txnFetch && t.Droppable() {
		tx.retryType = t
		n.armRetry(line, tx, now+n.FetchTimeout, true)
	}
}

func (n *Module) busInval(now int64, line uint64, procs uint16) {
	if procs == 0 {
		return
	}
	out := n.Msgs.Get()
	*out = msg.Message{
		Type: msg.BusInval, Line: line,
		SrcMod: n.g.ModNC(), DstMod: n.g.ModProc(0), BusProcs: procs,
		SrcStation: n.Station, DstStation: n.Station, IssueCycle: now,
	}
	n.outQ.Push(out, now)
}

func (n *Module) busInterv(now int64, line uint64, procs uint16, alsoProc int, ex bool) {
	out := n.Msgs.Get()
	*out = msg.Message{
		Type: msg.BusIntervention, Line: line,
		SrcMod: n.g.ModNC(), DstMod: n.g.ModProc(0),
		BusProcs: procs, AlsoProc: alsoProc, Ex: ex,
		SrcStation: n.Station, DstStation: n.Station, IssueCycle: now,
	}
	n.outQ.Push(out, now)
}

// ---- allocation & ejection ----

// allocate claims the slot for line, ejecting a victim if necessary per
// the rules of §4.6: LV victims (the only valid data on the station) are
// written back to their home; LI victims are dropped silently, losing the
// station-level directory — the source of false remote requests; GV/GI
// victims are dropped. Returns nil when the slot is held by a locked entry.
func (n *Module) allocate(line uint64, home int, now int64) *entry {
	e := n.slot(line)
	if e.valid && e.line == line {
		return e
	}
	if e.valid {
		if e.locked {
			return nil
		}
		n.evict(e, now)
	}
	if n.p.TraceLine != 0 && line == n.p.TraceLine {
		fmt.Printf("%8d  nc[%d] ALLOC line=%#x\n", now, n.Station, line)
	}
	*e = entry{valid: true, line: line, home: home, state: GI, broughtBy: -1}
	return e
}

func (n *Module) evict(e *entry, now int64) {
	n.Stats.Ejections.Inc()
	if n.p.TraceLine != 0 && e.line == n.p.TraceLine {
		fmt.Printf("%8d  nc[%d] EVICT line=%#x state=%v procs=%04b\n", now, n.Station, e.line, e.state, e.procs)
	}
	switch e.state {
	case LV:
		// The NC holds the only valid data in the system: it must travel
		// home. Local processors may retain shared copies (no inclusion).
		n.Stats.EjectWrBacks.Inc()
		wb := n.toNet(now, msg.RemWrBack, e.home, e.home, e.line)
		wb.Data, wb.HasData = e.data, true
	case LI:
		// The dirty copy lives in a local secondary cache; dropping the
		// entry silently loses the directory information and later causes
		// a false remote request (§4.6, Table 3).
		n.Stats.EjectLISilent.Inc()
	}
	e.valid = false
}

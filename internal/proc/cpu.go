package proc

import (
	"fmt"

	"numachine/internal/cache"
	"numachine/internal/hist"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// state is the CPU's execution state.
type state uint8

const (
	sThink         state = iota // executing; fetch the next reference at thinkUntil
	sWaitMem                    // one outstanding miss at the memory system
	sWaitRetry                  // NAK'ed; re-issue at retryAt
	sWaitBarrier                // parked at a barrier, released by the machine
	sWaitInterrupt              // waiting for a special-function completion interrupt
	sDone
)

// Stats collects the processor-module monitoring counters.
type Stats struct {
	Reads, Writes  monitor.Counter
	L1Hits         monitor.Counter
	L2Hits         monitor.Counter
	Misses         monitor.Counter
	Upgrades       monitor.Counter
	WriteBacks     monitor.Counter
	NAKRetries     monitor.Counter
	UpgradeRefetch monitor.Counter // upgrade acked after our copy died; refetched
	Interventions  monitor.Counter // served from our dirty L2
	StallCycles    monitor.Counter // cycles blocked on the memory system
	BarrierCycles  monitor.Counter

	// RetryLatency histograms the issue-to-completion latency of
	// references that were NAK'ed at least once; RetryStreak samples how
	// many consecutive NAKs each such reference absorbed. Together they
	// make retry convoys visible in the results and telemetry.
	RetryLatency hist.Hist
	RetryStreak  monitor.Sampler
}

// CPU is one processor module: R4400-like core + primary cache model +
// secondary cache + external agent.
type CPU struct {
	GlobalID int
	Local    int // index within the station
	Station  int

	g topo.Geometry
	p sim.Params

	runner *Runner
	l2     *cache.Cache
	l1     *cache.Cache // timing filter; data/coherence live in the L2

	outQ *sim.Queue[*msg.Message]

	// Msgs recycles the messages this station's components construct and
	// consume (nil-safe; wired by core, shared per station). See
	// msg.MessagePool for the ownership discipline.
	Msgs *msg.MessagePool

	st         state
	thinkUntil int64
	retryAt    int64
	lastResult uint64
	finishAt   int64 // completion timestamp of the parallel section
	statsAt    int64 // first cycle whose stall/barrier counters are unaccounted

	// NAK-retry tracking: nakStreak counts consecutive NAKs of the
	// current reference (the exponential back-off exponent and the
	// forward-progress monitor's retry budget), firstIssueAt stamps the
	// reference's first issue for the retry-latency histogram. retryRNG
	// is the per-CPU jitter stream; seeded from (RetryJitterSeed,
	// GlobalID) so draws are identical under every cycle loop.
	nakStreak    int
	firstIssueAt int64
	retryRNG     sim.RNG

	// The single outstanding reference.
	cur     Ref
	curLine uint64
	started bool

	// A fetched reference whose coalesced compute prefix (Ref.Pre) is
	// still being burned; executed when thinkUntil arrives.
	stash    Ref
	hasStash bool

	// Front-end hit fast path (see fasthits.go). epoch is the coherence
	// epoch: bumped on every event that can change this CPU's hit/miss
	// outcomes; the fast path validates its snapshot against it. fastGuard
	// is the virtual cycle of the last fast-resolved probe — no
	// cache-affecting delivery may land before it (assertHitWindow).
	epoch     uint64
	fastGuard int64

	// Horizon, when non-nil, returns a sound lower bound on the earliest
	// cycle at which a bus delivery could reach this CPU, given the current
	// cycle; wired by core from the station bus state. The fast path
	// resolves hits only at virtual cycles at or below the horizon.
	Horizon func(now int64) int64

	// HomeOf maps a line to its home station (page placement); wired by core.
	HomeOf func(line uint64) int
	// RetryChoice, when non-nil, overrides retryDelay: the model checker
	// installs it to turn NAK retry timing into an explored choice point.
	// It receives the consecutive-NAK count and the fixed base delay.
	RetryChoice func(nakStreak int, base int64) int64
	// OnBarrier is invoked when the CPU arrives at a barrier; core releases
	// it later via FinishBarrier.
	OnBarrier func(cpu *CPU, now int64)
	// OnPhase propagates phase-identifier writes to the monitor.
	OnPhase func(cpu *CPU, phase uint8)

	// Interrupt and barrier registers (§3.1.1).
	InterruptReg uint64
	BarrierReg   uint64

	// Tr is the structured-event trace sink (nil when tracing is off).
	Tr *trace.Sink

	// phase mirrors the monitor's phase-identifier register so the CPU
	// can attribute transactions without reading the shared register file;
	// phaseTxns counts issued transactions per phase (§3.3.4), aggregated
	// by core.
	phase     uint8
	phaseTxns [256]int64

	Stats Stats
}

// New builds a processor module. l1Lines of 0 disables the primary-cache
// timing filter.
func New(g topo.Geometry, p sim.Params, globalID int, runner *Runner, l1Lines int) *CPU {
	c := &CPU{
		GlobalID: globalID,
		Local:    g.LocalProc(globalID),
		Station:  g.StationOfProc(globalID),
		g:        g,
		p:        p,
		runner:   runner,
		l2:       cache.New(p.L2Lines, p.L2Assoc, p.LineSize),
		outQ:     sim.NewQueue[*msg.Message](0),
	}
	if l1Lines > 0 {
		c.l1 = cache.New(l1Lines, 1, p.LineSize)
	}
	c.retryRNG = *sim.NewRNG(p.RetryJitterSeed ^ (0x9e3779b97f4a7c15 * (uint64(globalID) + 1)))
	if runner == nil {
		c.st = sDone // idle until a program is loaded
	}
	return c
}

// SetRunner loads a program into an idle CPU.
func (c *CPU) SetRunner(r *Runner) {
	c.runner = r
	c.st = sThink
	c.thinkUntil = 0
	c.hasStash = false
}

// L2 exposes the secondary cache for the invariant checker and tests.
func (c *CPU) L2() *cache.Cache { return c.l2 }

// Phase returns the current phase-identifier register value.
func (c *CPU) Phase() uint8 { return c.phase }

// AddPhaseTransactions folds this CPU's per-phase transaction counts into
// dst, skipping empty phases.
func (c *CPU) AddPhaseTransactions(dst map[uint8]int64) {
	for ph, n := range c.phaseTxns {
		if n != 0 {
			dst[uint8(ph)] += n
		}
	}
}

// Done reports whether the workload has completed.
func (c *CPU) Done() bool { return c.st == sDone }

// Stalled reports whether the CPU is blocked on the memory system (the
// states the starvation monitor watches).
func (c *CPU) Stalled() bool { return c.st == sWaitMem || c.st == sWaitRetry }

// StateName returns the execution-state mnemonic (diagnostics).
func (c *CPU) StateName() string {
	return [...]string{"think", "waitMem", "waitRetry", "waitBarrier", "waitIntr", "done"}[c.st]
}

// Retries returns how many consecutive NAKs the in-flight reference has
// absorbed so far (0 when nothing is being retried).
func (c *CPU) Retries() int { return c.nakStreak }

// PendingLine returns the line of the in-flight reference (diagnostics).
func (c *CPU) PendingLine() uint64 { return c.curLine }

// Pending describes what the CPU is blocked on (diagnostics).
func (c *CPU) Pending() string {
	names := [...]string{"think", "waitMem", "waitRetry", "waitBarrier", "waitIntr", "done"}
	return fmt.Sprintf("%s line=%#x kind=%d", names[c.st], c.curLine, c.cur.Kind)
}

// FinishedAt returns the cycle the workload completed (valid once Done).
func (c *CPU) FinishedAt() int64 { return c.finishAt }

// BusOut implements bus.Module.
func (c *CPU) BusOut() *sim.Queue[*msg.Message] { return c.outQ }

func (c *CPU) align(addr uint64) uint64 { return addr &^ (uint64(c.p.LineSize) - 1) }

// NextWork reports the earliest cycle at or after now at which Tick can do
// anything beyond per-cycle stall accounting: the end of the current
// compute burst, the scheduled NAK retry, or sim.Never while the CPU can
// only be revived by a bus delivery or barrier release. The cycle loop
// uses it to skip quiescent ticks; syncStats reconciles the counters the
// skipped ticks would have incremented.
func (c *CPU) NextWork(now int64) int64 {
	switch c.st {
	case sThink:
		return c.thinkUntil
	case sWaitRetry:
		return c.retryAt
	default: // sWaitMem, sWaitInterrupt, sWaitBarrier, sDone
		return sim.Never
	}
}

// syncStats accounts the per-cycle stall/barrier counters for every cycle
// in [statsAt, limit]. The CPU's state is constant over any skipped
// stretch (that is what made the ticks skippable), so the whole gap is
// charged to the current state.
func (c *CPU) syncStats(limit int64) {
	if c.statsAt > limit {
		return
	}
	d := limit - c.statsAt + 1
	switch c.st {
	case sWaitMem, sWaitInterrupt, sWaitRetry:
		c.Stats.StallCycles.Add(d)
	case sWaitBarrier:
		c.Stats.BarrierCycles.Add(d)
	}
	c.statsAt = limit + 1
}

// SyncStats brings the stall/barrier counters up to date through limit
// without advancing the CPU (called before snapshotting results).
func (c *CPU) SyncStats(limit int64) { c.syncStats(limit) }

// Tick advances the CPU one cycle.
func (c *CPU) Tick(now int64) {
	c.syncStats(now - 1)
	c.statsAt = now + 1
	switch c.st {
	case sDone:
		return
	case sWaitMem, sWaitInterrupt:
		c.Stats.StallCycles.Inc()
		return
	case sWaitBarrier:
		c.Stats.BarrierCycles.Inc()
		return
	case sWaitRetry:
		if now < c.retryAt {
			c.Stats.StallCycles.Inc()
			return
		}
		c.issue(now, true)
		return
	case sThink:
		if now < c.thinkUntil {
			return
		}
		var ref Ref
		if c.hasStash {
			ref, c.hasStash = c.stash, false
		} else {
			// The workload goroutine runs only inside Next (the channels
			// enforce strict alternation), so the fast path may resolve hits
			// against the live caches; publish its burst window first and
			// adopt the burst's last probe as the delivery guard after.
			c.openFastWindow(now)
			ref = c.runner.Next(c.lastResult)
			c.adoptFastGuard()
		}
		if ref.Pre > 0 {
			// Burn the coalesced compute prefix first; the reference itself
			// executes at now+Pre, exactly when the uncoalesced RefCompute
			// sequence would have reached it.
			c.stash, c.hasStash = ref, true
			c.stash.Pre = 0
			c.thinkUntil = now + ref.Pre
			return
		}
		c.process(ref, now)
	}
}

// process starts executing one reference.
func (c *CPU) process(ref Ref, now int64) {
	c.cur = ref
	switch ref.Kind {
	case RefDone:
		c.st = sDone
		c.finishAt = now
	case RefCompute:
		c.thinkUntil = now + ref.N
	case RefCycle:
		c.lastResult = uint64(now)
		c.thinkUntil = now + 1
	case RefPrefetch:
		line := c.align(ref.Addr)
		if c.HomeOf(line) != c.Station && c.l2.Probe(line) == nil {
			out := c.Msgs.Get()
			*out = msg.Message{
				Type: msg.PrefetchReq, Line: line, Home: c.HomeOf(line),
				SrcMod: c.Local, DstMod: c.g.ModNC(),
				SrcStation: c.Station, DstStation: c.Station,
				Requester: c.GlobalID, IssueCycle: now,
			}
			c.outQ.Push(out, now)
		}
		c.lastResult = 0
		c.thinkUntil = now + 1
	case RefPhase:
		c.phase = ref.Phase
		c.Tr.Emit(now, trace.KindPhase, 0, 0, int32(ref.Phase), 0)
		if c.OnPhase != nil {
			c.OnPhase(c, ref.Phase)
		}
		c.lastResult = 0
		c.thinkUntil = now + 1
	case RefBarrier:
		c.st = sWaitBarrier
		if c.OnBarrier == nil {
			panic("proc: barrier used without a barrier controller")
		}
		c.Tr.Emit(now, trace.KindBarrierArrive, 0, 0, int32(c.phase), 0)
		c.OnBarrier(c, now)
	case RefKill:
		c.curLine = c.align(ref.Addr)
		c.st = sWaitInterrupt
		c.sendKill(now)
	case RefRead:
		c.Stats.Reads.Inc()
		c.curLine = c.align(ref.Addr)
		c.startRead(now)
	case RefWrite, RefTAS, RefFetchAdd:
		c.Stats.Writes.Inc()
		c.curLine = c.align(ref.Addr)
		c.startWrite(now)
	default:
		panic(fmt.Sprintf("proc: unknown ref kind %d", ref.Kind))
	}
}

func (c *CPU) startRead(now int64) {
	if l := c.l2.Probe(c.curLine); l != nil {
		c.lastResult = l.Data
		if c.l1 != nil && c.l1.Probe(c.curLine) != nil {
			c.Stats.L1Hits.Inc()
			c.thinkUntil = now + 1
		} else {
			c.Stats.L2Hits.Inc()
			c.l1Fill(c.curLine)
			c.thinkUntil = now + int64(c.p.L2HitCycles)
		}
		return
	}
	c.Stats.Misses.Inc()
	c.issue(now, false)
}

func (c *CPU) startWrite(now int64) {
	if l := c.l2.Probe(c.curLine); l != nil && l.State == cache.Dirty {
		c.lastResult = l.Data
		l.Data = c.newValue(l.Data)
		if c.l1 != nil && c.l1.Probe(c.curLine) != nil {
			c.Stats.L1Hits.Inc()
			c.thinkUntil = now + 1
		} else {
			c.Stats.L2Hits.Inc()
			c.l1Fill(c.curLine)
			c.thinkUntil = now + int64(c.p.L2HitCycles)
		}
		return
	}
	if l := c.l2.Probe(c.curLine); l != nil && l.State == cache.Shared {
		c.Stats.Upgrades.Inc()
	} else {
		c.Stats.Misses.Inc()
	}
	c.issue(now, false)
}

// newValue computes the line value after the current write-class reference.
func (c *CPU) newValue(old uint64) uint64 {
	switch c.cur.Kind {
	case RefTAS:
		return 1
	case RefFetchAdd:
		return old + c.cur.Data
	default:
		return c.cur.Data
	}
}

// issue sends the memory request for the current reference (or re-issues
// it after a NAK when retry is set).
func (c *CPU) issue(now int64, retry bool) {
	if retry {
		c.Stats.NAKRetries.Inc()
	} else {
		c.firstIssueAt = now
	}
	if c.cur.Kind == RefKill {
		// A NAK'ed special function re-issues whole.
		c.st = sWaitInterrupt
		c.sendKill(now)
		return
	}
	var t msg.Type
	switch c.cur.Kind {
	case RefRead:
		t = msg.LocalRead
	default:
		if l := c.l2.Probe(c.curLine); l != nil && l.State == cache.Shared {
			t = msg.LocalUpgd
		} else {
			t = msg.LocalReadEx
		}
	}
	c.st = sWaitMem
	c.send(t, now, retry)
}

// retryDelay computes the back-off before re-issuing after a NAK, with
// nakStreak NAKs already absorbed by the current reference. With
// RetryBackoff off this is the fixed RetryDelay of the prototype;
// otherwise the delay doubles per consecutive NAK up to RetryMaxDelay
// and gains a per-CPU jitter in [0, delay/2] so colliding requesters
// spread out instead of re-colliding in lockstep.
func (c *CPU) retryDelay() int64 {
	d := int64(c.p.RetryDelay)
	if c.RetryChoice != nil {
		return c.RetryChoice(c.nakStreak, d)
	}
	if !c.p.RetryBackoff {
		return d
	}
	shift := c.nakStreak
	if shift > 16 {
		shift = 16
	}
	d <<= uint(shift)
	if max := int64(c.p.RetryMaxDelay); max > 0 && d > max {
		d = max
	}
	if d > 1 {
		d += int64(c.retryRNG.Intn(int(d/2) + 1))
	}
	return d
}

// nak moves the CPU to the retry state after a ProcNAK.
func (c *CPU) nak(m *msg.Message, now int64) {
	d := c.retryDelay()
	c.Tr.Emit(now, trace.KindNAK, m.Line, m.TxnID, int32(m.NakOf), int32(d))
	c.nakStreak++
	c.st = sWaitRetry
	c.retryAt = now + d
}

func (c *CPU) send(t msg.Type, now int64, retry bool) {
	home := c.HomeOf(c.curLine)
	dst := c.g.ModNC()
	if home == c.Station {
		dst = c.g.ModMem()
	}
	c.phaseTxns[c.phase]++
	rb := int32(0)
	if retry {
		rb = 1
	}
	c.Tr.Emit(now, trace.KindTxnBegin, c.curLine, 0, int32(t), int32(c.phase)<<1|rb)
	out := c.Msgs.Get()
	*out = msg.Message{
		Type: t, Line: c.curLine, Home: home,
		SrcMod: c.Local, DstMod: dst,
		SrcStation: c.Station, DstStation: c.Station,
		Requester: c.GlobalID, ReqStation: c.Station,
		Retry: retry, IssueCycle: now,
	}
	c.outQ.Push(out, now)
}

func (c *CPU) sendKill(now int64) {
	home := c.HomeOf(c.curLine)
	c.phaseTxns[c.phase]++
	c.Tr.Emit(now, trace.KindTxnBegin, c.curLine, 0, int32(msg.KillReq), int32(c.phase)<<1)
	m := c.Msgs.Get()
	*m = msg.Message{
		Type: msg.KillReq, Line: c.curLine, Home: home,
		SrcMod: c.Local, SrcStation: c.Station,
		Requester: c.GlobalID, ReqStation: c.Station, IssueCycle: now,
	}
	if home == c.Station {
		m.DstMod = c.g.ModMem()
		m.DstStation = c.Station
	} else {
		m.DstMod = c.g.ModRI()
		m.DstStation = home
	}
	c.outQ.Push(m, now)
}

// l1Fill records the line in the primary-cache timing filter.
func (c *CPU) l1Fill(line uint64) {
	if c.l1 == nil {
		return
	}
	c.l1.Insert(line, cache.Shared, 0)
}

// fill installs a line in the L2 (write-back of the victim included) and
// completes the current reference.
func (c *CPU) fill(st cache.State, data uint64, now int64) {
	c.bumpEpoch() // a fill (and any eviction it forces) changes hit outcomes
	victim := c.l2.Insert(c.curLine, st, data)
	if victim.State == cache.Dirty {
		c.writeBack(victim, now)
	}
	if victim.State != cache.Invalid && c.l1 != nil {
		c.l1.Invalidate(victim.Addr)
	}
	c.l1Fill(c.curLine)
	c.complete(now)
}

func (c *CPU) writeBack(victim cache.Line, now int64) {
	c.Stats.WriteBacks.Inc()
	c.Tr.Emit(now, trace.KindWriteBack, victim.Addr, 0, 0, 0)
	home := c.HomeOf(victim.Addr)
	dst := c.g.ModNC()
	if home == c.Station {
		dst = c.g.ModMem()
	}
	out := c.Msgs.Get()
	*out = msg.Message{
		Type: msg.LocalWrBack, Line: victim.Addr, Home: home,
		SrcMod: c.Local, DstMod: dst,
		SrcStation: c.Station, DstStation: c.Station,
		Data: victim.Data, HasData: true, IssueCycle: now,
	}
	c.outQ.Push(out, now)
}

// complete finishes the current reference after a fill.
func (c *CPU) complete(now int64) {
	c.bumpEpoch() // state promotion and/or data mutation below
	l := c.l2.Probe(c.curLine)
	if l == nil {
		panic("proc: complete without a filled line")
	}
	switch c.cur.Kind {
	case RefRead:
		c.lastResult = l.Data
	default:
		c.lastResult = l.Data // old value for RMW, ignored for plain writes
		l.Data = c.newValue(l.Data)
	}
	c.Tr.Emit(now, trace.KindTxnEnd, c.curLine, 0, int32(c.cur.Kind), int32(c.phase))
	c.retryDone(now)
	c.st = sThink
	c.thinkUntil = now + int64(c.p.L2FillCycles+c.p.ProcMissOverhead)
}

// retryDone closes out the retry tracking of a completing reference,
// feeding the latency histogram when it was NAK'ed at least once.
func (c *CPU) retryDone(now int64) {
	if c.nakStreak == 0 {
		return
	}
	c.Stats.RetryStreak.Sample(int64(c.nakStreak))
	c.Stats.RetryLatency.Add(now - c.firstIssueAt)
	c.nakStreak = 0
}

// FinishBarrier releases the CPU from a barrier at the given cycle.
// Barriers fire before the CPU phase of the cycle, so the naive loop never
// charges a barrier cycle at now for a CPU released at now: account only
// through now-1 before the state changes.
func (c *CPU) FinishBarrier(now int64) {
	if c.st != sWaitBarrier {
		panic("proc: FinishBarrier on a CPU not at a barrier")
	}
	c.syncStats(now - 1)
	c.bumpEpoch() // synchronization boundary: close any open fast window
	c.Tr.Emit(now, trace.KindBarrierRelease, 0, 0, int32(c.phase), 0)
	c.lastResult = 0
	c.st = sThink
	c.thinkUntil = now
}

// BusDeliver implements bus.Module: responses, invalidations and
// interventions arriving from the station bus.
//
// The bus phase follows the CPU phase within a cycle, so the naive loop
// would already have ticked (and stall-charged) this CPU at now before the
// delivery: account through now inclusive before mutating state.
func (c *CPU) BusDeliver(m *msg.Message, now int64) {
	c.syncStats(now)
	if c.p.TraceLine != 0 && m.Line == c.p.TraceLine {
		l2 := "miss"
		if l := c.l2.Probe(m.Line); l != nil {
			l2 = fmt.Sprintf("%v/%#x", l.State, l.Data)
		}
		fmt.Printf("%8d cpu[%d] %-16s from mod%d data=%#x l2=%s pending=%v\n",
			now, c.GlobalID, m.Type, m.SrcMod, m.Data, l2, c.st == sWaitMem && m.Line == c.curLine)
	}
	switch m.Type {
	case msg.ProcData:
		if c.st == sWaitMem && m.Line == c.curLine {
			c.fill(cache.Shared, m.Data, now)
		}
	case msg.ProcDataEx:
		if c.st == sWaitMem && m.Line == c.curLine {
			c.fill(cache.Dirty, m.Data, now)
		}
	case msg.ProcUpgdAck:
		if c.st != sWaitMem || m.Line != c.curLine {
			return
		}
		l := c.l2.Probe(c.curLine)
		if l == nil {
			// Our shared copy died while the upgrade was in flight; the ack
			// grants ownership of data we no longer hold. Fetch it.
			c.Stats.UpgradeRefetch.Inc()
			c.send(msg.LocalReadEx, now, false)
			return
		}
		l.State = cache.Dirty
		c.complete(now)
	case msg.ProcNAK:
		if c.st == sWaitMem && m.Line == c.curLine {
			c.nak(m, now)
		} else if c.st == sWaitInterrupt && m.Line == c.curLine && m.NakOf == msg.KillReq {
			// The home refused a special function on a locked line; retry
			// it like any NAK'ed request instead of waiting forever for an
			// interrupt that will never come.
			c.nak(m, now)
		}
	case msg.BusInval:
		c.assertHitWindow(now)
		c.bumpEpoch()
		if old, ok := c.l2.Invalidate(m.Line); ok {
			_ = old
			c.Tr.Emit(now, trace.KindInval, m.Line, m.TxnID, 0, 0)
			if c.l1 != nil {
				c.l1.Invalidate(m.Line)
			}
		}
	case msg.BusIntervention:
		c.assertHitWindow(now)
		c.bumpEpoch() // may invalidate or downgrade our dirty copy
		c.serveIntervention(m, now)
	case msg.IntervResp:
		// Snarfed off the bus (AlsoProc): our pending miss is satisfied by
		// the owner's response in the same transfer (§2.3).
		if c.st == sWaitMem && m.Line == c.curLine {
			if c.cur.Kind == RefRead {
				c.fill(cache.Shared, m.Data, now)
			} else {
				c.fill(cache.Dirty, m.Data, now)
			}
		}
	case msg.NetInterrupt:
		c.bumpEpoch() // kill completion: a synchronization boundary
		c.InterruptReg |= 1 << uint(m.SrcStation)
		if c.st == sWaitInterrupt {
			c.Tr.Emit(now, trace.KindTxnEnd, c.curLine, m.TxnID, int32(c.cur.Kind), int32(c.phase))
			c.retryDone(now)
			c.lastResult = 0
			c.st = sThink
			c.thinkUntil = now + 1
		}
	case msg.NetBarrier:
		c.BarrierReg |= m.Data
	default:
		panic(fmt.Sprintf("proc[%d]: unexpected bus message %v", c.GlobalID, m))
	}
}

// serveIntervention answers a (possibly broadcast) intervention: supply
// the line if we hold it dirty, otherwise report a miss; exclusive
// interventions also invalidate any copy we keep.
func (c *CPU) serveIntervention(m *msg.Message, now int64) {
	l := c.l2.Probe(m.Line)
	resp := c.Msgs.Get()
	*resp = msg.Message{
		Line: m.Line, Home: m.Home,
		SrcMod: c.Local, DstMod: m.SrcMod,
		SrcStation: c.Station, DstStation: c.Station,
		AlsoProc: m.AlsoProc, IssueCycle: now,
	}
	ex := int32(0)
	if m.Ex {
		ex = 1
	}
	if l != nil && l.State == cache.Dirty {
		c.Stats.Interventions.Inc()
		c.Tr.Emit(now, trace.KindInterv, m.Line, m.TxnID, 1, ex)
		resp.Type = msg.IntervResp
		resp.Data, resp.HasData = l.Data, true
		if m.Ex {
			c.l2.Invalidate(m.Line)
			if c.l1 != nil {
				c.l1.Invalidate(m.Line)
			}
		} else {
			l.State = cache.Shared
		}
	} else {
		resp.Type = msg.IntervMiss
		c.Tr.Emit(now, trace.KindInterv, m.Line, m.TxnID, 0, ex)
		if m.Ex && l != nil {
			c.l2.Invalidate(m.Line)
			if c.l1 != nil {
				c.l1.Invalidate(m.Line)
			}
		}
	}
	c.outQ.Push(resp, now)
}

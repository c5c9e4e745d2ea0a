// Package core assembles the NUMAchine: stations (processors, memory,
// network cache, ring interface, bus) joined by the two-level ring
// hierarchy, plus the shared-memory allocator, page placement policies,
// the barrier controller, the deterministic cycle loop, and the coherence
// invariant checker used by the test suite.
package core

import (
	"fmt"

	"numachine/internal/bus"
	"numachine/internal/fault"
	"numachine/internal/memory"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/netcache"
	"numachine/internal/proc"
	"numachine/internal/ring"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// Placement selects the physical page placement policy.
type Placement uint8

const (
	// RoundRobin assigns page p to station p mod stations — the paper's
	// (deliberately pessimistic) evaluation setting.
	RoundRobin Placement = iota
	// FirstTouch assigns a page to the station of the first processor that
	// references it.
	FirstTouch
)

// Config describes one machine instance.
type Config struct {
	Geom      topo.Geometry
	Params    sim.Params
	L1Lines   int // primary-cache timing filter size (0 disables)
	Placement Placement

	// NaiveLoop disables the quiescence scheduler and ticks every component
	// every cycle. Results are bit-identical either way (the equivalence
	// test suite enforces it); the naive loop exists as the reference
	// implementation and for debugging.
	NaiveLoop bool

	// FastHits resolves L1/L2 cache hits synchronously in the workload
	// goroutine within a back-end-published delivery horizon, banking hit
	// cycles into Ref.Pre like compute coalescing — zero channel operations
	// per hit (see internal/proc/fasthits.go and DESIGN.md "Front-end hit
	// filtering"). Results and traces are bit-identical with it on or off;
	// the equivalence suites enforce this across both cycle loops and
	// faulted schedules. DefaultConfig enables it.
	FastHits bool

	// FaultSpec selects the deterministic fault-injection schedule (see
	// fault.ParseSpec); the empty string disables injection entirely and
	// reproduces the fault-free machine byte for byte. FaultSeed seeds
	// every injector PRNG stream: a fixed (seed, spec) pair yields the
	// same faults — at the same cycles, on the same packets — under both
	// cycle loops.
	FaultSpec string
	FaultSeed uint64

	// CheckInvariants promotes CheckCoherence from an end-of-run spot
	// check to an every-quiescence invariant: whenever the machine enters
	// a quiescent state during Run (and again after the final Drain), the
	// full coherence check runs and any violation panics with the line,
	// cycle and rule. Off by default (the scan costs a full-machine pass
	// per quiescent period); the equivalence suites enable it.
	CheckInvariants bool
}

// LoopName names the cycle loop this configuration selects: "naive" or
// "scheduled" (the default). Error messages and sweep drivers use it so
// any run is reproducible from its label.
func (cfg Config) LoopName() string {
	if cfg.NaiveLoop {
		return "naive"
	}
	return "scheduled"
}

// DefaultConfig returns the 64-processor prototype configuration.
func DefaultConfig() Config {
	return Config{
		Geom:      topo.Prototype,
		Params:    sim.DefaultParams(),
		L1Lines:   256, // 16 KB / 64 B, R4400 on-chip data cache
		Placement: RoundRobin,
		FastHits:  true,
	}
}

// Machine is one simulated NUMAchine.
type Machine struct {
	Cfg Config

	g topo.Geometry
	p sim.Params

	CPUs    []*proc.CPU
	Buses   []*bus.Bus
	Mems    []*memory.Module
	NCs     []*netcache.Module
	RIs     []*ring.StationRI
	IRIs    []*ring.IRI
	Locals  []*ring.Ring
	Central *ring.Ring

	credits *ring.Credits
	runners []*proc.Runner
	inj     *fault.Injector // nil in fault-free runs

	// maskCache memoizes routing-mask expansions for any consumer that
	// needs the full covered-station set (diagnostics, reports): each
	// distinct mask is expanded once per machine instead of per call.
	maskCache *topo.MaskCache

	// msgs and pkts are the machine's message and packet free lists,
	// shared by every component: a struct is allocated wherever a message
	// or packet is created and recycled wherever it dies, and one LIFO
	// list per type keeps that migration from draining any free list.
	msgs msg.MessagePool
	pkts msg.PacketPool

	now      int64
	heapNext uint64
	pageHome map[uint64]int // FirstTouch assignments

	barrier  barrierCtl
	Phases   *monitor.PhaseIDs
	deadlock int64

	// wasQuiesced tracks quiescence transitions for Config.CheckInvariants
	// (the check runs once per quiescent period, not once per cycle).
	wasQuiesced bool

	// watchdogAt is the cycle at which the deadlock watchdog next samples
	// progress; quiescence fast-forwards clamp to it so the watchdog trips
	// at the same cycle in every loop.
	watchdogAt int64

	// Per-cycle memo of Quiesced() for the fast-hit tier-3 horizon: every
	// deep-idle window open on the same cycle shares one machine scan.
	// quiescedAt is the cycle the memo was taken (-1 = none yet).
	quiescedAt int64
	quiescedOK bool

	// Per-cycle memo of remoteTransitFloor for the fast-hit tier-2.5
	// horizon (transitAt = cycle taken; -1 = none yet).
	transitAt    int64
	transitOK    bool
	transitFloor int64

	// gated is set for the scheduled loop (everything but NaiveLoop):
	// components tick only when their activity gate fires, with the poll
	// caches below amortizing the gate itself.
	gated bool

	// Poll caches for the gated loop (see stepScheduled): the
	// cycle at which each component's activity gate must next be consulted.
	// A cached entry is either the component's own last NextWork report or
	// an influence mark set when a component that can hand it work ticked.
	// ringOf maps a station to its local-ring index.
	pollCPU     []int64
	pollBus     []int64
	pollMem     []int64
	pollNC      []int64
	pollRI      []int64
	pollLocal   []int64
	pollCentral int64
	ringOf      []int

	// liveCPU marks processors with a loaded program. The others sit in
	// sDone forever, so the bus influence mark skips them and their poll
	// cache stays at sim.Never after the first pass — a machine bigger than
	// the workload's P costs one comparison per idle CPU per cycle, not a
	// NextWork call.
	liveCPU []bool

	// FastForwarded counts cycles skipped by quiescence fast-forwarding.
	FastForwarded monitor.Counter

	// tracer is the structured-event tracer (nil when disabled; see
	// EnableTrace in trace.go).
	tracer *trace.Tracer

	// Live-metrics sampler (SetSampler): onSample runs at a serial point
	// of the run loop every sampleEvery cycles.
	sampleEvery int64
	sampleAt    int64
	onSample    func(*Machine)

	// External driver (SetDriver): onDrive runs at a serial point of the
	// run loop every driveEvery cycles, *before* the cycle's step, and —
	// unlike the sampler — at exactly the same cycles under every loop:
	// the quiescence fast-forward clamps to driveAt (see step), so a drive
	// lands on its scheduled cycle whether the machine walked or jumped
	// there. The serving layer injects arrivals and dispatches requests
	// from here.
	driveEvery int64
	driveAt    int64
	onDrive    func(*Machine)

	// serveReport, when set, contributes the serving-layer section of
	// Results (see SetServeReport).
	serveReport func() *ServeResults
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	spec, err := fault.ParseSpec(cfg.FaultSpec)
	if err != nil {
		return nil, err
	}
	g, p := cfg.Geom, cfg.Params
	m := &Machine{
		Cfg:        cfg,
		g:          g,
		p:          p,
		pageHome:   make(map[uint64]int),
		heapNext:   uint64(p.PageSize), // keep address 0 unused
		Phases:     monitor.NewPhaseIDs(g.Procs()),
		quiescedAt: -1,
		transitAt:  -1,
	}
	// Build the injector only for a non-zero spec: a nil injector keeps
	// every hook inert and fault-free runs byte-identical.
	if !spec.Zero() {
		m.inj = fault.New(cfg.FaultSeed, spec)
	}
	m.credits = ring.NewCredits(g.Stations(), p.MaxNonsinkable)
	m.maskCache = topo.NewMaskCache(g)

	for s := 0; s < g.Stations(); s++ {
		b := bus.New(g, p, s)
		b.Msgs = &m.msgs
		m.Buses = append(m.Buses, b)
		mem := memory.New(g, p, s)
		mem.Fault = m.inj.Mem(s)
		mem.Msgs = &m.msgs
		m.Mems = append(m.Mems, mem)
		nc := netcache.New(g, p, s)
		nc.Fault = m.inj.NC(s)
		nc.FetchTimeout = m.inj.FetchTimeout()
		nc.Msgs = &m.msgs
		m.NCs = append(m.NCs, nc)
		ri := ring.NewStationRI(g, p, s, m.credits)
		ri.Fault = m.inj.RI(s)
		ri.Msgs = &m.msgs
		ri.Pkts = &m.pkts
		m.RIs = append(m.RIs, ri)
	}
	m.runners = make([]*proc.Runner, g.Procs())
	for id := 0; id < g.Procs(); id++ {
		cpu := proc.New(g, p, id, nil, cfg.L1Lines)
		cpu.HomeOf = m.homeOfFor(cpu)
		cpu.OnBarrier = m.barrierArrive
		cpu.OnPhase = func(c *proc.CPU, ph uint8) { m.Phases.Set(c.GlobalID, ph) }
		cpu.Msgs = &m.msgs
		m.CPUs = append(m.CPUs, cpu)
	}
	for s := 0; s < g.Stations(); s++ {
		b := m.Buses[s]
		for i := 0; i < g.ProcsPerStation; i++ {
			b.Attach(g.ModProc(i), m.CPUs[g.ProcAt(s, i)])
		}
		b.Attach(g.ModMem(), m.Mems[s])
		b.Attach(g.ModNC(), m.NCs[s])
		b.Attach(g.ModRI(), m.RIs[s])
	}
	m.buildRings()
	if !cfg.NaiveLoop {
		m.gated = true
		m.pollCPU = make([]int64, g.Procs())
		m.pollBus = make([]int64, g.Stations())
		m.pollMem = make([]int64, g.Stations())
		m.pollNC = make([]int64, g.Stations())
		m.pollRI = make([]int64, g.Stations())
		m.pollLocal = make([]int64, g.Rings)
		m.liveCPU = make([]bool, g.Procs())
		m.ringOf = make([]int, g.Stations())
		for s := range m.ringOf {
			m.ringOf[s] = g.RingOf(s)
		}
	}
	return m, nil
}

// buildRings wires the ring hierarchy: each local ring carries its
// stations (plus an inter-ring interface when there is a central ring);
// the sequencing point of a local ring is its IRI (§2.3), or node 0 on
// single-ring machines.
func (m *Machine) buildRings() {
	g, p := m.g, m.p
	multi := g.Rings > 1
	var centralNodes []ring.Node
	for r := 0; r < g.Rings; r++ {
		var nodes []ring.Node
		for pos := 0; pos < g.StationsPerRing; pos++ {
			nodes = append(nodes, m.RIs[g.StationAt(r, pos)])
		}
		seq := 0
		if multi {
			iri := ring.NewIRI(p, r, m.credits)
			iri.Fault = m.inj.IRI(r)
			iri.Msgs = &m.msgs
			iri.Pkts = &m.pkts
			m.IRIs = append(m.IRIs, iri)
			nodes = append(nodes, iri.LocalPort())
			centralNodes = append(centralNodes, iri.CentralPort())
			seq = len(nodes) - 1
		}
		name := fmt.Sprintf("local-%d", r)
		lr := ring.New(name, p, nodes, seq, false)
		lr.Fault = m.inj.Ring(name)
		m.Locals = append(m.Locals, lr)
	}
	if multi {
		m.Central = ring.New("central", p, centralNodes, 0, true)
		m.Central.Fault = m.inj.Ring("central")
	}
}

// Geometry returns the machine geometry.
func (m *Machine) Geometry() topo.Geometry { return m.g }

// Params returns the timing parameters.
func (m *Machine) Params() sim.Params { return m.p }

// Now returns the current cycle.
func (m *Machine) Now() int64 { return m.now }

// ---- address space ----

// LineOf aligns addr to its cache line.
func (m *Machine) LineOf(addr uint64) uint64 { return addr &^ (uint64(m.p.LineSize) - 1) }

// Alloc reserves size bytes of shared memory and returns the base address.
// Allocations are line-aligned; page homes follow the placement policy.
func (m *Machine) Alloc(size int) uint64 {
	if size <= 0 {
		panic("core: Alloc with non-positive size")
	}
	base := m.heapNext
	ls := uint64(m.p.LineSize)
	m.heapNext += (uint64(size) + ls - 1) &^ (ls - 1)
	return base
}

// AllocLines reserves n whole cache lines.
func (m *Machine) AllocLines(n int) uint64 { return m.Alloc(n * m.p.LineSize) }

// AllocAt reserves size bytes placed entirely on the given station,
// overriding the placement policy (page-aligned).
func (m *Machine) AllocAt(station, size int) uint64 {
	ps := uint64(m.p.PageSize)
	if rem := m.heapNext % ps; rem != 0 {
		m.heapNext += ps - rem
	}
	base := m.heapNext
	m.heapNext += (uint64(size) + ps - 1) &^ (ps - 1)
	for pg := base / ps; pg <= (m.heapNext-1)/ps; pg++ {
		m.pageHome[pg] = station
	}
	return base
}

// HomeOf returns the home station of the line containing addr.
func (m *Machine) HomeOf(addr uint64) int {
	pg := addr / uint64(m.p.PageSize)
	if s, ok := m.pageHome[pg]; ok {
		return s
	}
	if m.Cfg.Placement == RoundRobin {
		s := int(pg % uint64(m.g.Stations()))
		m.pageHome[pg] = s
		return s
	}
	// FirstTouch without a toucher: fall back to round robin.
	s := int(pg % uint64(m.g.Stations()))
	m.pageHome[pg] = s
	return s
}

// homeOfFor builds the per-CPU home resolver, implementing first-touch
// assignment when configured.
func (m *Machine) homeOfFor(c *proc.CPU) func(uint64) int {
	return func(line uint64) int {
		pg := line / uint64(m.p.PageSize)
		if s, ok := m.pageHome[pg]; ok {
			return s
		}
		s := int(pg % uint64(m.g.Stations()))
		if m.Cfg.Placement == FirstTouch {
			s = c.Station
		}
		m.pageHome[pg] = s
		return s
	}
}

// ---- barrier controller ----

// barrierCtl implements the hardware barrier-register synchronization of
// §3.2: arrival is a multicast register write; once every participant has
// arrived, releases propagate with a ring-traversal latency.
type barrierCtl struct {
	participants int
	arrived      []*proc.CPU
	releases     []barrierRelease
}

type barrierRelease struct {
	cpu *proc.CPU
	at  int64
}

// barrierArrive records a CPU's arrival; the last participant schedules
// everyone's release.
func (m *Machine) barrierArrive(c *proc.CPU, now int64) {
	m.barrier.arrived = append(m.barrier.arrived, c)
	if len(m.barrier.arrived) < m.barrier.participants {
		return
	}
	// All arrived: release everyone after a multicast traversal delay.
	delay := m.barrierLatency()
	for _, cpu := range m.barrier.arrived {
		m.barrier.releases = append(m.barrier.releases, barrierRelease{cpu: cpu, at: now + delay})
	}
	m.barrier.arrived = m.barrier.arrived[:0]
}

// barrierLatency approximates the multicast of barrier-register writes:
// one traversal of the ring hierarchy.
func (m *Machine) barrierLatency() int64 {
	hops := m.g.StationsPerRing + 1
	if m.g.Rings > 1 {
		hops += m.g.Rings + m.g.StationsPerRing + 1
	}
	return int64(hops*m.p.RingHopCycles + 2*m.p.BusArbCycles + 2*m.p.BusCmdCycles)
}

func (m *Machine) fireBarriers() {
	if len(m.barrier.releases) == 0 {
		return
	}
	kept := m.barrier.releases[:0]
	for _, r := range m.barrier.releases {
		if r.at <= m.now {
			r.cpu.FinishBarrier(m.now)
			if m.pollCPU != nil {
				m.pollCPU[r.cpu.GlobalID] = m.now
			}
		} else {
			kept = append(kept, r)
		}
	}
	m.barrier.releases = kept
}

// ---- run loop ----

// Load assigns programs to the first len(progs) processors. It must be
// called before Run; the remaining processors stay idle.
func (m *Machine) Load(progs []proc.Program) {
	if len(progs) > len(m.CPUs) {
		panic(fmt.Sprintf("core: %d programs for %d processors", len(progs), len(m.CPUs)))
	}
	m.barrier.participants = len(progs)
	for i := range m.runners {
		m.runners[i] = nil // drop runners from a previous phase
	}
	for i, pr := range progs {
		m.runners[i] = proc.NewRunner(i, len(progs), pr)
		m.CPUs[i].SetRunner(m.runners[i])
		if m.Cfg.FastHits {
			m.CPUs[i].Horizon = m.hitHorizonFor(m.CPUs[i])
			m.CPUs[i].EnableFastHits()
		}
	}
	if m.liveCPU == nil {
		m.liveCPU = make([]bool, len(m.CPUs))
	}
	for i := range m.liveCPU {
		m.liveCPU[i] = m.runners[i] != nil
	}
	m.resetPolls()
}

// Step advances the machine one cycle in the fixed deterministic order:
// processors, buses, memory modules, network caches, ring interfaces,
// rings. With the quiescence scheduler enabled only components whose
// activity gate fires are ticked; the gate runs immediately before each
// component's slot in the same order, so it sees exactly the state the
// naive tick would have seen, and a skipped tick is provably a stats-only
// no-op that the lazy counters reconcile later.
func (m *Machine) Step() {
	if m.gated {
		m.stepScheduled()
	} else {
		m.stepNaive()
	}
}

func (m *Machine) stepNaive() {
	now := m.now
	m.fireBarriers()
	for _, c := range m.CPUs {
		c.Tick(now)
	}
	for _, b := range m.Buses {
		b.Tick(now)
	}
	for _, mem := range m.Mems {
		mem.Tick(now)
	}
	for _, nc := range m.NCs {
		nc.Tick(now)
	}
	for _, ri := range m.RIs {
		ri.Tick(now)
	}
	for _, lr := range m.Locals {
		lr.Tick(now)
	}
	if m.Central != nil {
		m.Central.Tick(now)
	}
	if now&31 == 0 {
		for _, iri := range m.IRIs {
			iri.ObserveAt(now)
		}
	}
	m.now++
}

// stepScheduled is the gated cycle; it returns how many components ticked
// (0 means the whole machine was quiescent this cycle and the run loop may
// fast-forward to cachedWake()).
//
// The poll caches make the gate pass cost proportional to the components
// that are (or might be) active rather than to the machine size. A cached
// entry pollX[i] > now means component i's last NextWork report (or an
// influence mark, below) proved it cannot do work this cycle, so the gate
// is one comparison. The cache is invalidated exactly where work can be
// handed over, following the machine's data flow within the fixed tick
// order:
//
//	CPU tick      -> its bus this cycle (request pushed to BusOut);
//	bus tick      -> mem/NC/RI/local ring this cycle (deliveries and RI
//	                 packetization happen inside the bus tick; all four are
//	                 gated after the buses), its live CPUs next cycle;
//	mem/NC tick   -> its bus next cycle (responses queued to BusOut);
//	RI tick       -> its bus next cycle (reassembled messages to BusOut);
//	local tick    -> member RIs next cycle (slot consumption lands in the
//	                 RI input FIFO), the central ring this cycle (ascending
//	                 packets into the IRI up-FIFO), itself next cycle;
//	central tick  -> every local ring next cycle (descending packets into
//	                 the IRI down-FIFOs), itself next cycle;
//	barrier fire  -> the released CPU this cycle (fireBarriers runs before
//	                 the CPU phase).
//
// Everything else a tick does is invisible to NextWork (credit releases
// and FIFO pops can only remove work, so a stale-early cache merely costs
// a re-poll).
func (m *Machine) stepScheduled() int {
	now := m.now
	ticked := 0
	m.fireBarriers()
	for i, c := range m.CPUs {
		if m.pollCPU[i] > now {
			continue
		}
		if w := c.NextWork(now); w <= now {
			c.Tick(now)
			ticked++
			m.pollCPU[i] = now + 1
			if s := c.Station; m.pollBus[s] > now {
				m.pollBus[s] = now
			}
		} else {
			m.pollCPU[i] = w
		}
	}
	for s, b := range m.Buses {
		if m.pollBus[s] > now {
			continue
		}
		if w := b.NextWork(now); w <= now {
			b.Tick(now)
			ticked++
			m.pollBus[s] = now + 1
			if m.pollMem[s] > now {
				m.pollMem[s] = now
			}
			if m.pollNC[s] > now {
				m.pollNC[s] = now
			}
			if m.pollRI[s] > now {
				m.pollRI[s] = now
			}
			if r := m.ringOf[s]; m.pollLocal[r] > now {
				m.pollLocal[r] = now
			}
			first := m.g.ProcAt(s, 0)
			for i := first; i < first+m.g.ProcsPerStation; i++ {
				if m.liveCPU[i] && m.pollCPU[i] > now+1 {
					m.pollCPU[i] = now + 1
				}
			}
		} else {
			m.pollBus[s] = w
		}
	}
	for s, mem := range m.Mems {
		if m.pollMem[s] > now {
			continue
		}
		if w := mem.NextWork(now); w <= now {
			mem.Tick(now)
			ticked++
			m.pollMem[s] = now + 1
			if m.pollBus[s] > now+1 {
				m.pollBus[s] = now + 1
			}
		} else {
			m.pollMem[s] = w
		}
	}
	for s, nc := range m.NCs {
		if m.pollNC[s] > now {
			continue
		}
		if w := nc.NextWork(now); w <= now {
			nc.Tick(now)
			ticked++
			m.pollNC[s] = now + 1
			if m.pollBus[s] > now+1 {
				m.pollBus[s] = now + 1
			}
		} else {
			m.pollNC[s] = w
		}
	}
	for s, ri := range m.RIs {
		if m.pollRI[s] > now {
			continue
		}
		if w := ri.NextWork(now); w <= now {
			ri.Tick(now)
			ticked++
			m.pollRI[s] = now + 1
			if m.pollBus[s] > now+1 {
				m.pollBus[s] = now + 1
			}
		} else {
			m.pollRI[s] = w
		}
	}
	for r, lr := range m.Locals {
		if m.pollLocal[r] > now {
			continue
		}
		if w := lr.NextWork(now); w <= now {
			lr.Tick(now)
			ticked++
			m.pollLocal[r] = now + 1
			for pos := 0; pos < m.g.StationsPerRing; pos++ {
				if s := m.g.StationAt(r, pos); m.pollRI[s] > now+1 {
					m.pollRI[s] = now + 1
				}
			}
			if m.Central != nil && m.pollCentral > now {
				m.pollCentral = now
			}
		} else {
			m.pollLocal[r] = w
		}
	}
	if m.Central != nil && m.pollCentral <= now {
		if w := m.Central.NextWork(now); w <= now {
			m.Central.Tick(now)
			ticked++
			m.pollCentral = now + 1
			for r := range m.Locals {
				if m.pollLocal[r] > now+1 {
					m.pollLocal[r] = now + 1
				}
			}
		} else {
			m.pollCentral = w
		}
	}
	if now&31 == 0 {
		for _, iri := range m.IRIs {
			iri.ObserveAt(now)
		}
	}
	m.now++
	return ticked
}

// cachedWake returns the earliest future cycle at which any component or
// pending barrier release can do work, read straight from the poll caches.
// It is only meaningful immediately after a fully quiescent stepScheduled
// pass: nothing ticked, so every cache entry was either freshly polled or
// already proved future, and their minimum is a sound floor on the next
// event. (A floor, not an exact time — influence marks may be one cycle
// early — so a jump may land short and re-step; that costs one gated pass,
// never correctness.)
func (m *Machine) cachedWake() int64 {
	wake := m.pollCentral
	for _, at := range m.pollCPU {
		if at < wake {
			wake = at
		}
	}
	for _, at := range m.pollBus {
		if at < wake {
			wake = at
		}
	}
	for _, at := range m.pollMem {
		if at < wake {
			wake = at
		}
	}
	for _, at := range m.pollNC {
		if at < wake {
			wake = at
		}
	}
	for _, at := range m.pollRI {
		if at < wake {
			wake = at
		}
	}
	for _, at := range m.pollLocal {
		if at < wake {
			wake = at
		}
	}
	for _, r := range m.barrier.releases {
		if r.at < wake {
			wake = r.at
		}
	}
	return wake
}

// resetPolls discards every poll cache so the next scheduled cycle gates
// every component afresh. Load calls it (new runners change CPU state
// outside the loop) and Run calls it on entry.
func (m *Machine) resetPolls() {
	if m.pollCPU == nil {
		return
	}
	for i := range m.pollCPU {
		m.pollCPU[i] = m.now
	}
	for s := range m.pollBus {
		m.pollBus[s] = m.now
		m.pollMem[s] = m.now
		m.pollNC[s] = m.now
		m.pollRI[s] = m.now
	}
	for r := range m.pollLocal {
		m.pollLocal[r] = m.now
	}
	// A machine without a central ring must not keep re-gating it: the
	// entry is folded into cachedWake unconditionally.
	m.pollCentral = m.now
	if m.Central == nil {
		m.pollCentral = sim.Never
	}
}

// step advances one cycle and, when the machine proved quiescent, jumps
// m.now to the next scheduled event. The jump is exact: no component
// ticked, so no state can change until the earliest reported wake-up, and
// every per-cycle statistic is reconciled lazily. Jumps never pass the
// watchdog deadline, so the no-progress check in Run samples at exactly
// the cycles the naive loop samples — including a sim.Never wake on a
// fully wedged machine, which must land on the deadline rather than spin.
func (m *Machine) step() {
	if !m.gated {
		m.stepNaive()
		return
	}
	if m.stepScheduled() == 0 {
		wake := m.cachedWake()
		if m.watchdogAt > m.now && wake > m.watchdogAt {
			wake = m.watchdogAt
		}
		// The external driver must observe every scheduled drive cycle:
		// clamp like the watchdog so the fast-forward lands on driveAt
		// instead of jumping over it. >= because stepScheduled has already
		// advanced m.now — a drive due exactly now must suppress the jump
		// entirely (wake becomes m.now) so Run fires it before moving on.
		if m.onDrive != nil && m.driveAt >= m.now && wake > m.driveAt {
			wake = m.driveAt
		}
		if wake > m.now && wake != sim.Never {
			m.FastForwarded.Add(wake - m.now)
			m.now = wake
		}
	}
}

// SetDriver arranges for fn to run at a serial point of the run loop
// every `every` cycles, starting at the next step, before that cycle's
// components tick. Drives are part of the simulated experiment, not
// observation: unlike the sampler, they fire at *exactly* the same cycles
// under every cycle loop (the quiescence fast-forward clamps to the next
// drive), so a driver that mutates state visible to workload goroutines —
// the serving layer's dispatcher — keeps the machine bit-identical across
// both loops. Pass fn == nil to detach.
func (m *Machine) SetDriver(every int64, fn func(*Machine)) {
	if every <= 0 {
		every = 1
	}
	m.driveEvery = every
	m.driveAt = m.now
	m.onDrive = fn
}

// SetServeReport registers the serving layer's results provider; Results
// calls it to fill the Serve section. Pass nil to detach.
func (m *Machine) SetServeReport(fn func() *ServeResults) { m.serveReport = fn }

// Run executes until every loaded program finishes, returning the cycle
// count of the parallel section (max completion time). It panics if the
// deadlock watchdog trips.
func (m *Machine) Run() int64 {
	start := m.now
	m.resetPolls()
	// Gate on the CPUs, not the runners: a runner reports Done as soon as
	// the RefDone sentinel is fetched, but the CPU may still owe its
	// coalesced trailing compute cycles.
	active := func() bool {
		for i, r := range m.runners {
			if r != nil && !m.CPUs[i].Done() {
				return true
			}
		}
		return false
	}
	lastRefs, lastAt := int64(-1), m.now
	if m.p.DeadlockCycles > 0 {
		m.watchdogAt = lastAt + m.p.DeadlockCycles
	}
	// Per-transaction forward-progress monitor state, sampled on the same
	// watchdog schedule (the quiescence fast-forward clamps to watchdogAt,
	// so every loop samples at identical cycles and aborts identically).
	var starveRefs []int64
	var starveWins []int
	if m.p.StarvationWindows > 0 {
		starveRefs = make([]int64, len(m.CPUs))
		starveWins = make([]int, len(m.CPUs))
	}
	for active() {
		if m.onDrive != nil && m.now >= m.driveAt {
			// Drive before the cycle's step: the driver sees the machine at
			// the top of cycle now, before any component ticks, exactly as
			// it would under the naive loop.
			m.onDrive(m)
			m.driveAt = m.now + m.driveEvery
		}
		m.step()
		if m.Cfg.CheckInvariants {
			q := m.Quiesced()
			if q && !m.wasQuiesced {
				if err := m.CheckCoherence(); err != nil {
					panic(fmt.Sprintf("core: invariant violation at cycle %d: %v", m.now, err))
				}
			}
			m.wasQuiesced = q
		}
		if m.onSample != nil && m.now >= m.sampleAt {
			m.onSample(m)
			m.sampleAt = m.now + m.sampleEvery
		}
		if m.p.DeadlockCycles > 0 && m.now-lastAt >= m.p.DeadlockCycles {
			refs := m.totalRefs()
			if refs == lastRefs {
				panic(fmt.Sprintf("core: no progress for %d cycles at cycle %d\n%s",
					m.p.DeadlockCycles, m.now, m.dumpState()))
			}
			// Retry budget: one reference accumulating this many
			// consecutive NAKs is wedged even if the rest of the machine
			// moves (a permanently locked home line, a retry convoy).
			if m.p.MaxRetries > 0 {
				for i, c := range m.CPUs {
					if c.Retries() > m.p.MaxRetries {
						panic(fmt.Sprintf("core: cpu[%d] exceeded the retry budget (%d consecutive NAKs > %d) at cycle %d\n%s",
							i, c.Retries(), m.p.MaxRetries, m.now, m.dumpState()))
					}
				}
			}
			// Starvation: a processor parked in a memory-wait state with
			// no completed reference for StarvationWindows consecutive
			// windows while the machine as a whole progressed (the global
			// no-progress check above did not fire).
			if m.p.StarvationWindows > 0 {
				for i, c := range m.CPUs {
					r := c.Stats.Reads.Value() + c.Stats.Writes.Value()
					if c.Stalled() && r == starveRefs[i] {
						starveWins[i]++
						if starveWins[i] >= m.p.StarvationWindows {
							panic(fmt.Sprintf("core: cpu[%d] starved for %d watchdog windows (%d cycles) at cycle %d\n%s",
								i, starveWins[i], int64(starveWins[i])*m.p.DeadlockCycles, m.now, m.dumpState()))
						}
					} else {
						starveWins[i] = 0
					}
					starveRefs[i] = r
				}
			}
			lastRefs, lastAt = refs, m.now
			m.watchdogAt = lastAt + m.p.DeadlockCycles
		}
	}
	end := int64(0)
	for i, r := range m.runners {
		if r != nil && m.CPUs[i].FinishedAt() > end {
			end = m.CPUs[i].FinishedAt()
		}
	}
	m.Drain()
	if m.Cfg.CheckInvariants {
		if err := m.CheckCoherence(); err != nil {
			panic(fmt.Sprintf("core: invariant violation after drain at cycle %d: %v", m.now, err))
		}
	}
	return end - start
}

// Drain runs the machine until all queues, rings and controllers are
// empty, so post-run invariant checks see a quiesced system.
func (m *Machine) Drain() {
	limit := m.now + 10_000_000
	for !m.Quiesced() {
		m.step()
		if m.now > limit {
			panic("core: machine failed to drain\n" + m.dumpState())
		}
	}
}

// SyncStats reconciles every lazily-accounted statistic (stall counters,
// utilization, queue-occupancy sampling) through the last completed cycle.
// Idempotent; a no-op on the naive loop. Results() calls it before
// snapshotting.
func (m *Machine) SyncStats() {
	limit := m.now - 1
	if limit < 0 {
		return
	}
	for _, c := range m.CPUs {
		c.SyncStats(limit)
	}
	for _, b := range m.Buses {
		b.SyncStats(limit)
	}
	for _, mem := range m.Mems {
		mem.SyncStats(limit)
	}
	for _, nc := range m.NCs {
		nc.SyncStats(limit)
	}
	for _, ri := range m.RIs {
		ri.SyncStats(limit)
	}
	for _, iri := range m.IRIs {
		iri.SyncStats(limit)
	}
	for _, lr := range m.Locals {
		lr.SyncStats(limit)
	}
	if m.Central != nil {
		m.Central.SyncStats(limit)
	}
}

// StationHealth is one station's cumulative retry-pressure counters, the
// raw material for the serving layer's health monitor: CPU NAK retries
// (hot/locked lines, frozen directories) plus NC loss-timeout re-issues
// (dropped packets, degraded rings).
type StationHealth struct {
	NAKRetries      int64
	TimeoutReissues int64
}

// SampleStationHealth fills dst (grown as needed) with per-station
// cumulative health counters. It reconciles lazy statistics first, so
// when called at a SetDriver serial point — which fires at identical
// cycles under every loop — the sample is loop-invariant and safe to
// feed back into simulated decisions (the serving circuit breaker).
func (m *Machine) SampleStationHealth(dst []StationHealth) []StationHealth {
	m.SyncStats()
	n := m.g.Stations()
	if cap(dst) < n {
		dst = make([]StationHealth, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = StationHealth{}
	}
	for i, c := range m.CPUs {
		dst[m.g.StationOfProc(i)].NAKRetries += c.Stats.NAKRetries.Value()
	}
	for s, nc := range m.NCs {
		dst[s].TimeoutReissues += nc.Stats.TimeoutReissues.Value()
	}
	return dst
}

// Quiesced reports whether no messages remain anywhere in the machine and
// no memory line is still locked by an unfinished lock transaction.
func (m *Machine) Quiesced() bool {
	if !m.deliveryQuiet() {
		return false
	}
	for _, mem := range m.Mems {
		if mem.PendingLocks() > 0 {
			return false
		}
	}
	return true
}

// deliveryQuiet reports whether no messages remain anywhere in the
// machine: every controller idle, every queue empty, every ring drained.
// Unlike Quiesced it ignores held memory locks — a locked line is passive
// state, not a message source: nothing emanates from it until some CPU
// pushes a new request, and that request pays the full grant-plus-
// directory-stage path like any other. The fast-hit tier-3 horizon
// therefore gates on this predicate (lock-heavy workloads would otherwise
// never see a deep window), while fast-forwarding and the public API keep
// the stricter Quiesced.
func (m *Machine) deliveryQuiet() bool {
	for _, mem := range m.Mems {
		if !mem.Idle() {
			return false
		}
	}
	for _, nc := range m.NCs {
		if !nc.Idle() {
			return false
		}
	}
	for _, ri := range m.RIs {
		if !ri.Idle() {
			return false
		}
	}
	for _, iri := range m.IRIs {
		if !iri.Idle() {
			return false
		}
	}
	for _, lr := range m.Locals {
		if !lr.Drained() {
			return false
		}
	}
	if m.Central != nil && !m.Central.Drained() {
		return false
	}
	for _, b := range m.Buses {
		if !b.Idle(m.now) {
			return false
		}
	}
	for _, c := range m.CPUs {
		if !c.BusOut().Empty() {
			return false
		}
	}
	return true
}

// quiescedThisCycle memoizes deliveryQuiet() per cycle for the fast-hit
// tier-3 horizon, which may consult it once per handshake: every deep-idle
// window opened during the same cycle shares a single machine scan. The
// memo stays sound across one cycle's CPU phase: any activity created
// after it was taken is CPU-initiated at or after the current cycle, and
// the tier-3 bound reads each CPU's wake live (a CPU that just went active
// contributes wake <= now), so the two-transfer argument still covers it.
// A memo that turns stale in the other direction (machine drained
// mid-cycle) only under-reports quiescence, which merely narrows the
// window to tier 2.
func (m *Machine) quiescedThisCycle() bool {
	if m.quiescedAt != m.now {
		m.quiescedAt = m.now
		m.quiescedOK = m.deliveryQuiet()
	}
	return m.quiescedOK
}

func (m *Machine) totalRefs() int64 {
	var n int64
	for _, c := range m.CPUs {
		n += c.Stats.Reads.Value() + c.Stats.Writes.Value()
	}
	return n
}

// dumpState renders the structured stuck-transaction report for abort
// messages (see progress.go).
func (m *Machine) dumpState() string { return m.Progress().String() }

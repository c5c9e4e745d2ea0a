package proc

import (
	"fmt"

	"numachine/internal/cache"
	"numachine/internal/sim"
)

// Front-end hit fast path (core.Config.FastHits).
//
// The lock-step handshake makes every Ctx.Read/Write cost two channel
// operations even when the access is an L1/L2 hit that completes without
// touching the memory system. The fast path removes that cost for the
// common case: the workload goroutine resolves cache hits itself, against
// the very tag arrays the timing back end uses, and banks the hit latency
// into the coalesced compute prefix (Ref.Pre) of the next reference that
// genuinely needs the handshake — exactly the mechanism Ctx.Compute
// already uses for compute bursts.
//
// Safety rests on two invariants:
//
//  1. Alternation. The workload goroutine runs only while its CPU is
//     blocked inside Runner.Next; the unbuffered channels give the
//     happens-before edges. The goroutine may therefore read and mutate
//     the CPU's live L1/L2 state with no data race, and nothing —
//     invalidation, intervention, fill — can change that state while a
//     burst of fast hits is being resolved. The coherence epoch snapshot
//     (see CPU.epoch) documents and double-checks this: the back end bumps
//     it on every event that can change this CPU's hit/miss outcomes, and
//     the fast path revalidates it before each resolution.
//
//  2. The delivery horizon. A hit resolved while the goroutine runs at
//     resume cycle t executes *virtually* at u = t + pending (after the
//     banked costs of earlier fast hits). The naive back end would have
//     probed the cache at cycle u, after every bus delivery up to u-1. So
//     a fast resolution at u is exact only if no delivery can reach this
//     CPU before u. The back end computes a sound lower bound on the
//     earliest possible delivery (CPU.Horizon, wired by core from the
//     station bus state) and publishes it as the burst window; the fast
//     path falls back to the slow handshake as soon as the virtual time
//     would pass it. A runtime guard (CPU.fastGuard) turns any horizon
//     bug into a loud panic: cache-affecting deliveries assert that they
//     do not land before the last fast-resolved probe.
//
// Where a hit run is split into bursts affects only simulator throughput,
// never simulated behaviour: each hit is resolved at its exact virtual
// cycle against the exact cache state, so Results and traces are
// byte-identical with the fast path on or off (the equivalence suite
// enforces this across both cycle loops, fault schedules included).
// Hits emit no trace events in the slow path either, so traces cannot
// diverge. The only observable difference is when the monitoring counters
// are incremented mid-run (a telemetry sample taken mid-burst may be a few
// references ahead); final counters are identical.
type fastHits struct {
	enabled bool
	l1, l2  *cache.Cache
	stats   *Stats
	epoch   *uint64
	hitL2   int64 // cost of an L2 hit on an L1 miss (Params.L2HitCycles)

	// Per-resume window, published by the back end immediately before the
	// workload goroutine resumes.
	resumeAt int64  // cycle of this Runner.Next call
	horizon  int64  // no delivery reaches this CPU strictly before any probe at or below it
	epochAt  uint64 // coherence epoch snapshot at resumeAt

	// lastProbe is the virtual cycle of the burst's latest fast-resolved
	// probe (-1 when none); the back end adopts it as the delivery guard.
	lastProbe int64

	// Front-end-only diagnostics (never part of Stats, so Results stay
	// identical with the fast path on or off): references resolved fast,
	// and hit references that fell back to the handshake split by cause.
	resolved   int64
	missWindow int64 // window exhausted (virtual time past the horizon)
	missEpoch  int64 // epoch moved since the window opened
	missState  int64 // probe missed or write needed ownership
}

// FastHitStats reports the front end's resolution diagnostics: fast-resolved
// references, window-exhausted fallbacks, stale-epoch fallbacks, and
// cache-state fallbacks (miss or non-Dirty write).
func (c *CPU) FastHitStats() (resolved, window, epoch, state int64) {
	if c.runner == nil {
		return
	}
	f := &c.runner.ctx.fast
	return f.resolved, f.missWindow, f.missEpoch, f.missState
}

// window opens a new burst window; the back end calls this (via
// CPU.openFastWindow) while the goroutine is parked, right before Next.
func (f *fastHits) window(now, horizon int64, epoch uint64) {
	f.resumeAt = now
	f.horizon = horizon
	f.epochAt = epoch
	f.lastProbe = -1
}

// hitCost classifies a hit against the primary-cache timing filter exactly
// as CPU.startRead/startWrite do, with the same counter and L1-fill
// effects, and returns the cycles the hit consumes.
func (f *fastHits) hitCost(line uint64) int64 {
	if f.l1 != nil && f.l1.Probe(line) != nil {
		f.stats.L1Hits.Inc()
		return 1
	}
	f.stats.L2Hits.Inc()
	if f.l1 != nil {
		f.l1.Insert(line, cache.Shared, 0)
	}
	return f.hitL2
}

// fastRead resolves a read hit in the workload goroutine. It mirrors the
// hit half of CPU.startRead; anything else (miss, stale window) reports
// !ok and takes the slow handshake, which is always safe because the back
// end re-classifies the reference at its real execution cycle.
func (c *Ctx) fastRead(addr uint64) (uint64, bool) {
	f := &c.fast
	if len(c.batch) != 0 {
		// A deferred burst is open: this reference executes only after the
		// batch drains, at a cycle the front end cannot know, so the
		// resume-relative virtual clock below is meaningless. Fall back (the
		// handshake drains the batch first and re-classifies at real time).
		return 0, false
	}
	u := f.resumeAt + c.pending
	if u > f.horizon {
		f.missWindow++
		return 0, false
	}
	if *f.epoch != f.epochAt {
		f.missEpoch++
		return 0, false
	}
	line := f.l2.Align(addr)
	l := f.l2.Probe(line)
	if l == nil {
		f.missState++
		return 0, false
	}
	f.stats.Reads.Inc()
	c.pending += f.hitCost(line)
	f.lastProbe = u
	f.resolved++
	return l.Data, true
}

// fastWrite resolves a write hit to a Dirty line (the only write the slow
// path completes without a bus transaction — Shared copies need an
// upgrade, misses a fetch). Mirrors the Dirty branch of CPU.startWrite.
func (c *Ctx) fastWrite(addr, v uint64) bool {
	f := &c.fast
	if len(c.batch) != 0 {
		return false // see fastRead: stale virtual clock while a burst is open
	}
	u := f.resumeAt + c.pending
	if u > f.horizon {
		f.missWindow++
		return false
	}
	if *f.epoch != f.epochAt {
		f.missEpoch++
		return false
	}
	line := f.l2.Align(addr)
	l := f.l2.Probe(line)
	if l == nil || l.State != cache.Dirty {
		f.missState++
		return false
	}
	f.stats.Writes.Inc()
	l.Data = v
	c.pending += f.hitCost(line)
	f.lastProbe = u
	f.resolved++
	return true
}

// ---- back-end (CPU) side ----

// CoherenceEpoch returns the CPU's monotonic coherence epoch: it advances
// whenever an event lands that could change this CPU's hit/miss outcomes
// or cached values (invalidation, intervention, fill/eviction, upgrade
// ack, kill completion, barrier release). Exposed for tests.
func (c *CPU) CoherenceEpoch() uint64 { return c.epoch }

func (c *CPU) bumpEpoch() { c.epoch++ }

// EnableFastHits wires the current runner's Ctx to resolve cache hits in
// the workload goroutine. Must be called after SetRunner; core calls it
// when Config.FastHits is set.
func (c *CPU) EnableFastHits() {
	if c.runner == nil {
		return
	}
	c.runner.ctx.fast = fastHits{
		enabled:   true,
		l1:        c.l1,
		l2:        c.l2,
		stats:     &c.Stats,
		epoch:     &c.epoch,
		hitL2:     int64(c.p.L2HitCycles),
		lastProbe: -1,
	}
}

// openFastWindow publishes the burst window for the upcoming Next call and
// adoptFastGuard turns the burst's last probe into the delivery guard.
func (c *CPU) openFastWindow(now int64) {
	f := &c.runner.ctx.fast
	if !f.enabled {
		return
	}
	horizon := now // always sound: a delivery at cycle t lands after the CPU phase of t
	if c.Horizon != nil {
		horizon = c.Horizon(now)
	}
	f.window(now, horizon, c.epoch)
}

func (c *CPU) adoptFastGuard() {
	f := &c.runner.ctx.fast
	if f.enabled && f.lastProbe >= 0 {
		c.fastGuard = f.lastProbe
	}
}

// assertHitWindow panics if a cache-affecting delivery lands before the
// last fast-resolved probe — i.e. if a Horizon implementation ever
// over-promises. It converts a silent divergence into an immediate failure
// in every equivalence and fault-soak run.
func (c *CPU) assertHitWindow(now int64) {
	if now < c.fastGuard {
		panic(fmt.Sprintf(
			"proc[%d]: coherence delivery at cycle %d inside a fast-hit window (last fast probe at %d); the hit horizon was unsound",
			c.GlobalID, now, c.fastGuard))
	}
}

// HorizonWake classifies this CPU for a *sibling's* hit-horizon
// computation: the earliest cycle at which it could push a new bus request
// from its current state. needsDelivery reports that the CPU must first
// receive a bus delivery (memory response, completion interrupt) before it
// can act at all — on a quiet station that first delivery is itself
// bounded by the ring-borne arrival path, so such CPUs impose no tighter
// bound. A parked barrier waiter can be released by the machine as early
// as the next cycle, hence now+1.
func (c *CPU) HorizonWake(now int64) (wake int64, needsDelivery bool) {
	switch c.st {
	case sThink:
		return c.thinkUntil, false
	case sWaitRetry:
		return c.retryAt, false
	case sWaitBarrier:
		return now + 1, false
	case sWaitMem, sWaitInterrupt:
		return 0, true
	default: // sDone: can never initiate anything again
		return sim.Never, false
	}
}

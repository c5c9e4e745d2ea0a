package core

import (
	"runtime"
	"testing"

	"numachine/internal/msg"
	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// TestPoolDoubleFreeSoak runs representative scenarios — fault-free under
// both cycle loops, faulted under the scheduled loop — with the pools'
// double-free guard armed. A Put site that releases a message or packet still owned
// elsewhere (a multicast original, a dup-faulted chain, a forwarded
// response) panics at the second Put instead of silently aliasing two
// owners.
func TestPoolDoubleFreeSoak(t *testing.T) {
	defer msg.SetPoolDebug(msg.SetPoolDebug(true))
	scenarios := equivScenarios()
	picks := []equivScenario{scenarios[1], scenarios[3], scenarios[7]}
	for _, sc := range picks {
		for _, loop := range equivLoops {
			t.Run(sc.name+"/"+loop, func(t *testing.T) {
				runEquiv(t, sc, loop)
			})
		}
	}
	// Faulted: drops orphan messages, dups alias one original across two
	// packet chains — exactly the lifetimes the Put guards must respect.
	for _, fs := range faultSchedules() {
		for _, sc := range faultScenarios() {
			t.Run(sc.name+"/"+fs.name+"/scheduled", func(t *testing.T) {
				runFaulted(t, sc, "scheduled", fs, false)
			})
		}
	}
}

// TestMessagePoolRecyclesInSteadyState pins that the pools actually engage
// on a real machine: across a traffic-heavy run, recycled messages must
// outnumber fresh allocations — a silently dead Put path (or a pool left
// unwired in core.New) fails here long before it shows up as a throughput
// regression in the benchmark manifest.
func TestMessagePoolRecyclesInSteadyState(t *testing.T) {
	sc := equivScenarios()[2] // 4x2x2 mixed traffic
	m, _ := runEquiv(t, sc, "scheduled")
	news, hits := m.msgs.Stats()
	if news == 0 && hits == 0 {
		t.Fatal("message pool unwired: no Get ever reached it")
	}
	if hits < news {
		t.Errorf("message pool barely engages: %d fresh allocations vs %d recycles", news, hits)
	}
	t.Logf("message pool: %d fresh, %d recycled (%.1f%% hit rate)",
		news, hits, 100*float64(hits)/float64(news+hits))
}

// TestMulticastRefcountReleaseOrder targets the release-order hazard the
// packet reference count introduces: duplicate faults alias one message
// across two packet chains, so releases arrive interleaved and out of
// chain order, and a refcount bug (a copy path that forgets AddRef, a
// death site that releases twice) surfaces as an underflow panic or — with
// the pool guard armed — a double free at the recycle site. The test runs
// the invalidation-heavy hierarchical scenario under both dup schedules
// and both cycle loops, requires that duplicates were actually injected,
// and that multicast originals still recycle (hits keep accruing) rather
// than silently falling back to the GC.
func TestMulticastRefcountReleaseOrder(t *testing.T) {
	defer msg.SetPoolDebug(msg.SetPoolDebug(true))
	sc := faultScenarios()[0] // hierarchical mixed traffic: invalidations to duplicate
	for _, fs := range faultSchedules() {
		if fs.name != "dup" && fs.name != "drop-dup" {
			continue
		}
		for _, loop := range equivLoops {
			t.Run(fs.name+"/"+loop, func(t *testing.T) {
				m, _, _ := runFaulted(t, sc, loop, fs, false)
				if m.Results().Fault.Dups == 0 {
					t.Fatal("schedule injected no duplicate packets")
				}
				if news, hits := m.msgs.Stats(); hits == 0 {
					t.Fatalf("message pool never recycled (%d fresh allocations)", news)
				}
			})
		}
	}
}

// TestAllocsPerRef pins the pooled hot paths: steady-state heap
// allocations per completed reference on a dense, invalidation-heavy
// sharing run. An identical warm-up phase runs first so every free list
// (messages, packets, directory txns), reassembly map and queue backing
// array reaches its working-set size; the measured phase then exercises
// only the recycling paths. With message, packet, txn and multicast-
// original recycling wired the measured phase allocates essentially
// nothing — the budget is a hard zero-alloc gate with only enough slack
// for runtime-internal noise, and trips immediately if any recycling
// path is lost.
func TestAllocsPerRef(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
	cfg.Params.L2Lines = 64
	cfg.Params.NCLines = 128
	cfg.Params.DeadlockCycles = 2_000_000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lines, perProc = 32, 3000
	base := m.AllocLines(lines)
	prog := func(c *proc.Ctx) {
		rng := sim.NewRNG(uint64(c.ID)*977 + 5)
		for i := 0; i < perProc; i++ {
			line := base + uint64(rng.Intn(lines))*64
			if rng.Intn(8) < 5 {
				c.Read(line)
			} else {
				c.Write(line, uint64(c.ID)<<32|uint64(i))
			}
		}
		c.Barrier()
	}
	progs := make([]proc.Program, m.Geometry().Procs())
	for i := range progs {
		progs[i] = prog
	}
	// Warm-up: same traffic, fills every pool to working-set size.
	m.Load(progs)
	m.Run()
	warmRefs := m.Results().Proc.Reads + m.Results().Proc.Writes

	m.Load(progs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Run()
	runtime.ReadMemStats(&after)
	r := m.Results()
	refs := r.Proc.Reads + r.Proc.Writes - warmRefs
	if refs == 0 {
		t.Fatal("no references completed")
	}
	perRef := float64(after.Mallocs-before.Mallocs) / float64(refs)
	const budget = 0.05
	if perRef > budget {
		t.Errorf("allocs per reference = %.3f, budget %.2f: a zero-alloc hot path regressed", perRef, budget)
	}
	t.Logf("allocs per reference: %.4f (%d refs)", perRef, refs)
}

// TestIRIDropRecyclesMessages pins that a request the fault injector
// drops inside an inter-ring interface returns to the message pool when
// its last reference dies there. Repeated phases of the same faulted
// traffic run on one machine with the double-free guard armed; once the
// warm-up phases have grown the free list to the working set, the pool
// must stop allocating even though the IRIs keep dropping requests. A
// drop site that hands the message to the GC instead forces one fresh
// allocation per lost zero-hit message.
func TestIRIDropRecyclesMessages(t *testing.T) {
	defer msg.SetPoolDebug(msg.SetPoolDebug(true))
	cfg := DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
	cfg.Params.L2Lines = 64
	cfg.Params.NCLines = 128
	cfg.Params.DeadlockCycles = 2_000_000
	cfg.FaultSpec = "drop=0.05,timeout=2000"
	cfg.FaultSeed = 11
	cfg.Params.RetryBackoff = true
	cfg.Params.RetryJitterSeed = 11
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lines, perProc = 32, 1500
	base := m.AllocLines(lines)
	prog := func(c *proc.Ctx) {
		rng := sim.NewRNG(uint64(c.ID)*977 + 5)
		for i := 0; i < perProc; i++ {
			line := base + uint64(rng.Intn(lines))*64
			if rng.Intn(8) < 5 {
				c.Read(line)
			} else {
				c.Write(line, uint64(c.ID)<<32|uint64(i))
			}
		}
		c.Barrier()
	}
	progs := make([]proc.Program, m.Geometry().Procs())
	for i := range progs {
		progs[i] = prog
	}
	iriDrops := func() (n int64) {
		for _, iri := range m.IRIs {
			n += iri.Drops.Value()
		}
		return n
	}
	const warm, phases = 2, 6
	var warmNews, warmDrops int64
	for ph := 0; ph < phases; ph++ {
		m.Load(progs)
		m.Run()
		news, _ := m.msgs.Stats()
		t.Logf("phase %d: %d fresh messages, %d IRI drops", ph, news, iriDrops())
		if ph == warm-1 {
			warmNews, warmDrops = news, iriDrops()
		}
	}
	news, _ := m.msgs.Stats()
	drops := iriDrops() - warmDrops
	if drops == 0 {
		t.Fatal("no IRI drops after warm-up; the test is vacuous")
	}
	if grown := news - warmNews; grown > 0 {
		t.Errorf("message pool kept allocating after warm-up: %d fresh messages across %d IRI drops", grown, drops)
	}
}

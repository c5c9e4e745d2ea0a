package core

import (
	"fmt"
	"reflect"
	"testing"

	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// equivScenario is one workload run under both cycle loops.
type equivScenario struct {
	name string
	cfg  func() Config
	load func(m *Machine) []proc.Program
}

// equivScenarios covers the structurally distinct activity patterns: dense
// sharing traffic (little to skip), compute-heavy phases (long quiescent
// stretches the scheduler fast-forwards), barrier ping-pong (machine-level
// wake-ups), special functions, and every protocol-option combination the
// quick suite exercises.
func equivScenarios() []equivScenario {
	var scenarios []equivScenario

	mixed := func(geom topo.Geometry, opts uint8, stream uint64) equivScenario {
		return equivScenario{
			name: fmt.Sprintf("mixed/g%dx%dx%d-opts%d-s%d",
				geom.ProcsPerStation, geom.StationsPerRing, geom.Rings, opts, stream),
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Geom = geom
				cfg.Params.L2Lines = 64
				cfg.Params.NCLines = 128
				cfg.Params.SCLocking = opts&1 != 0
				cfg.Params.OptimisticUpgrades = opts&2 != 0
				if opts&4 != 0 {
					cfg.Placement = FirstTouch
				}
				cfg.Params.DeadlockCycles = 2_000_000
				return cfg
			},
			load: func(m *Machine) []proc.Program {
				const lines, perProc = 32, 40
				base := m.AllocLines(lines)
				counter := m.AllocLines(1)
				prog := func(c *proc.Ctx) {
					rng := sim.NewRNG(stream<<16 | uint64(c.ID) | 1)
					for i := 0; i < perProc; i++ {
						line := base + uint64(rng.Intn(lines))*64
						switch rng.Intn(8) {
						case 0, 1, 2, 3:
							c.Read(line)
						case 4, 5:
							c.Write(line, uint64(c.ID)<<32|uint64(i))
						case 6:
							c.FetchAdd(counter, 1)
						case 7:
							c.Prefetch(line)
						}
					}
					c.Barrier()
				}
				progs := make([]proc.Program, m.Geometry().Procs())
				for i := range progs {
					progs[i] = prog
				}
				return progs
			},
		}
	}

	computeHeavy := equivScenario{
		// Long compute bursts between references: nearly every cycle is
		// quiescent, so this is the fast-forward stress case.
		name: "compute-heavy",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
			cfg.Params.L2Lines = 64
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		},
		load: func(m *Machine) []proc.Program {
			shared := m.AllocLines(8)
			prog := func(c *proc.Ctx) {
				for i := 0; i < 6; i++ {
					c.Compute(5_000 + int64(c.ID)*137)
					c.Write(shared+uint64((c.ID+i)%8)*64, uint64(i))
					c.Read(shared + uint64(i%8)*64)
				}
				c.Barrier()
			}
			progs := make([]proc.Program, m.Geometry().Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		},
	}

	barrierPingPong := equivScenario{
		// Repeated barriers with skewed arrival: exercises the machine-level
		// barrier-release wake-ups and the NAK retry path under contention.
		name: "barrier-pingpong",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 3, Rings: 1}
			cfg.Params.L2Lines = 32
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		},
		load: func(m *Machine) []proc.Program {
			hot := m.AllocLines(1)
			prog := func(c *proc.Ctx) {
				for round := 0; round < 5; round++ {
					c.Compute(int64(c.ID) * 301)
					c.FetchAdd(hot, 1)
					c.Barrier()
				}
			}
			progs := make([]proc.Program, m.Geometry().Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		},
	}

	special := equivScenario{
		// Kill special function + locks: covers sWaitInterrupt wake-ups and
		// the test-and-set retry loop.
		name: "kill-and-locks",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
			cfg.Params.L2Lines = 64
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		},
		load: func(m *Machine) []proc.Program {
			lock := m.AllocLines(1)
			data := m.AllocLines(4)
			prog := func(c *proc.Ctx) {
				for i := 0; i < 4; i++ {
					c.AcquireLock(lock)
					v := c.Read(data)
					c.Write(data, v+1)
					c.ReleaseLock(lock)
				}
				c.Barrier()
				if c.ID == 0 {
					c.Kill(data + 64)
				}
				c.Barrier()
			}
			progs := make([]proc.Program, m.Geometry().Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		},
	}

	scenarios = append(scenarios,
		mixed(topo.Geometry{ProcsPerStation: 1, StationsPerRing: 2, Rings: 1}, 0, 11),
		mixed(topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}, 1, 12),
		mixed(topo.Geometry{ProcsPerStation: 4, StationsPerRing: 2, Rings: 2}, 2, 13),
		mixed(topo.Geometry{ProcsPerStation: 2, StationsPerRing: 3, Rings: 3}, 3, 14),
		mixed(topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}, 7, 15),
		computeHeavy,
		barrierPingPong,
		special,
	)
	return scenarios
}

// equivLoops are the cycle-loop variants every scenario must agree across.
var equivLoops = []string{"naive", "scheduled"}

// runEquiv executes one scenario under the named loop and returns the
// machine plus the Run() return value.
func runEquiv(t *testing.T, sc equivScenario, loop string) (*Machine, int64) {
	t.Helper()
	cfg := sc.cfg()
	cfg.CheckInvariants = true // coherence re-checked at every quiescence
	cfg.NaiveLoop = loop == "naive"
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	m.Load(sc.load(m))
	cycles := m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("%s (%s): coherence: %v", sc.name, loop, err)
	}
	return m, cycles
}

// compareRuns checks bit-identity of two finished machines: cycle counts,
// per-CPU completion times and stats, the full Results snapshot, and the
// per-component queue/utilization statistics.
func compareRuns(t *testing.T, aName, bName string, ma, mb *Machine, cyclesA, cyclesB int64) {
	t.Helper()
	if cyclesA != cyclesB {
		t.Errorf("Run(): %s=%d %s=%d", aName, cyclesA, bName, cyclesB)
	}
	if ma.Now() != mb.Now() {
		t.Errorf("final cycle: %s=%d %s=%d", aName, ma.Now(), bName, mb.Now())
	}
	for i := range ma.CPUs {
		if a, b := ma.CPUs[i].FinishedAt(), mb.CPUs[i].FinishedAt(); a != b {
			t.Errorf("cpu[%d] FinishedAt: %s=%d %s=%d", i, aName, a, bName, b)
		}
		sa, sb := ma.CPUs[i].Stats, mb.CPUs[i].Stats
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("cpu[%d] stats diverge:\n%s: %+v\n%s: %+v", i, aName, sa, bName, sb)
		}
	}
	ra, rb := ma.Results(), mb.Results()
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("Results diverge:\n%s: %+v\n%s: %+v", aName, ra, bName, rb)
	}
	for i := range ma.RIs {
		type triple struct{ sink, nonsink, in sim.QueueStats }
		var a, b triple
		a.sink, a.nonsink, a.in = ma.RIs[i].QueueStats()
		b.sink, b.nonsink, b.in = mb.RIs[i].QueueStats()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("ri[%d] queue stats diverge:\n%s: %+v\n%s: %+v", i, aName, a, bName, b)
		}
	}
	for i := range ma.Mems {
		if a, b := ma.Mems[i].InQStats(), mb.Mems[i].InQStats(); !reflect.DeepEqual(a, b) {
			t.Errorf("mem[%d] inQ stats diverge:\n%s: %+v\n%s: %+v", i, aName, a, bName, b)
		}
	}
	for i := range ma.NCs {
		if a, b := ma.NCs[i].InQStats(), mb.NCs[i].InQStats(); !reflect.DeepEqual(a, b) {
			t.Errorf("nc[%d] inQ stats diverge:\n%s: %+v\n%s: %+v", i, aName, a, bName, b)
		}
	}
	for i := range ma.Buses {
		if a, b := ma.Buses[i].Util.Value(), mb.Buses[i].Util.Value(); a != b {
			t.Errorf("bus[%d] utilization: %s=%v %s=%v", i, aName, a, bName, b)
		}
		if a, b := ma.Buses[i].Transfers.Value(), mb.Buses[i].Transfers.Value(); a != b {
			t.Errorf("bus[%d] transfers: %s=%d %s=%d", i, aName, a, bName, b)
		}
	}
	for i := range ma.Locals {
		if a, b := ma.Locals[i].Util.Value(), mb.Locals[i].Util.Value(); a != b {
			t.Errorf("local ring %d utilization: %s=%v %s=%v", i, aName, a, bName, b)
		}
		if a, b := ma.Locals[i].Stalls.Value(), mb.Locals[i].Stalls.Value(); a != b {
			t.Errorf("local ring %d stalls: %s=%d %s=%d", i, aName, a, bName, b)
		}
	}
	if ma.Central != nil {
		if a, b := ma.Central.Util.Value(), mb.Central.Util.Value(); a != b {
			t.Errorf("central ring utilization: %s=%v %s=%v", aName, a, bName, b)
		}
	}
}

// TestSchedulerEquivalence is the harness the optimized cycle loop is
// judged by: for every scenario, the naive tick-everything loop and the
// event-aware scheduled loop must produce bit-identical cycle counts,
// per-CPU completion times, and every monitored statistic.
func TestSchedulerEquivalence(t *testing.T) {
	for _, sc := range equivScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			mn, cyclesN := runEquiv(t, sc, "naive")
			for _, loop := range equivLoops[1:] {
				m, cycles := runEquiv(t, sc, loop)
				compareRuns(t, "naive", loop, mn, m, cyclesN, cycles)
				if loop == "scheduled" && sc.name == "compute-heavy" && m.FastForwarded.Value() == 0 {
					t.Errorf("compute-heavy scenario fast-forwarded 0 cycles; scheduler not engaging")
				}
			}
		})
	}
}

// TestSchedulerEquivalenceQuick re-runs the property-test workload shape
// under both loops across random seeds, comparing full result sets.
func TestSchedulerEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestSchedulerEquivalence in -short mode")
	}
	geoms := []topo.Geometry{
		{ProcsPerStation: 1, StationsPerRing: 2, Rings: 1},
		{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2},
		{ProcsPerStation: 2, StationsPerRing: 3, Rings: 3},
	}
	for seed := uint64(0); seed < 6; seed++ {
		sc := equivScenario{name: fmt.Sprintf("quick-%d", seed)}
		g := geoms[int(seed)%len(geoms)]
		opts := uint8(seed * 3)
		sc.cfg = func() Config {
			cfg := DefaultConfig()
			cfg.Geom = g
			cfg.Params.L2Lines = []int{32, 64, 256}[int(seed)%3]
			cfg.Params.NCLines = []int{128, 512}[int(seed)%2]
			cfg.Params.SCLocking = opts&1 != 0
			cfg.Params.OptimisticUpgrades = opts&2 != 0
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		}
		sc.load = func(m *Machine) []proc.Program {
			const lines, perProc = 48, 60
			base := m.AllocLines(lines)
			counter := m.AllocLines(1)
			prog := func(c *proc.Ctx) {
				rng := sim.NewRNG(seed<<20 | uint64(c.ID) | 1)
				for i := 0; i < perProc; i++ {
					line := base + uint64(rng.Intn(lines))*64
					switch rng.Intn(8) {
					case 0, 1, 2, 3:
						c.Read(line)
					case 4, 5:
						c.Write(line, uint64(c.ID)<<32|uint64(i))
					case 6:
						c.FetchAdd(counter, 1)
					case 7:
						c.Prefetch(line)
					}
				}
				c.Barrier()
			}
			progs := make([]proc.Program, m.Geometry().Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		}
		t.Run(sc.name, func(t *testing.T) {
			mn, cyclesN := runEquiv(t, sc, "naive")
			for _, loop := range equivLoops[1:] {
				m, cycles := runEquiv(t, sc, loop)
				if cyclesN != cycles || mn.Now() != m.Now() {
					t.Errorf("cycles: naive=(%d,%d) %s=(%d,%d)", cyclesN, mn.Now(), loop, cycles, m.Now())
				}
				rn, rl := mn.Results(), m.Results()
				if !reflect.DeepEqual(rn, rl) {
					t.Errorf("Results diverge:\nnaive:    %+v\n%s: %+v", rn, loop, rl)
				}
			}
		})
	}
}

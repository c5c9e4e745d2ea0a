package core

import (
	"bytes"
	"strings"
	"testing"

	"numachine/internal/proc"
	"numachine/internal/topo"
)

// faultSchedule is one (seed, spec) pair for the soak and fault
// equivalence harnesses.
type faultSchedule struct {
	name string
	seed uint64
	spec string
}

// faultSchedules covers each fault class alone plus combined schedules.
// Drop/dup rates are high enough that small scenarios reliably inject
// several faults; timeouts are shortened so loss recovery does not
// dominate the runtime.
func faultSchedules() []faultSchedule {
	return []faultSchedule{
		{"drop", 11, "drop=0.05,timeout=2000"},
		{"dup", 12, "dup=0.05"},
		{"drop-dup", 13, "drop=0.02,dup=0.02,timeout=2000"},
		{"freeze-mem", 14, "freeze-mem=3000:250"},
		{"freeze-nc-degrade", 15, "freeze-nc=4000:200,degrade-ring=5000:250"},
		{"everything", 16, "drop=0.02,dup=0.02,freeze-mem=6000:150,freeze-nc=7000:150,degrade-ring=8000:200,timeout=2000"},
	}
}

// faultScenarios picks the equivalence scenarios the fault harnesses run:
// hierarchical mixed traffic (remote fetches to drop, invalidations to
// duplicate) and the kill/lock scenario (special functions whose NAKs
// take the interrupt-wait recovery path).
func faultScenarios() []equivScenario {
	all := equivScenarios()
	return []equivScenario{all[1], all[7]}
}

// runFaulted executes one scenario under the named loop with the given
// fault schedule (and the adaptive backoff it implies) and returns the
// machine, its cycle count, and — when traced — the canonical text trace.
func runFaulted(t *testing.T, sc equivScenario, loop string, fs faultSchedule, traced bool) (*Machine, int64, []byte) {
	t.Helper()
	cfg := sc.cfg()
	cfg.FaultSpec = fs.spec
	cfg.FaultSeed = fs.seed
	cfg.Params.RetryBackoff = true
	cfg.Params.RetryJitterSeed = fs.seed
	cfg.NaiveLoop = loop == "naive"
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", sc.name, fs.name, err)
	}
	if traced {
		m.EnableTrace(1 << 14)
	}
	m.Load(sc.load(m))
	cycles := m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("%s/%s (%s): coherence: %v", sc.name, fs.name, loop, err)
	}
	var tr []byte
	if traced {
		var buf bytes.Buffer
		if err := m.Tracer().WriteText(&buf); err != nil {
			t.Fatalf("%s/%s (%s): WriteText: %v", sc.name, fs.name, loop, err)
		}
		tr = buf.Bytes()
	}
	return m, cycles, tr
}

// TestFaultSoak is the robustness acceptance harness: every fault
// schedule crossed with the fault scenarios must run to full completion
// (Run returns only when every program finishes; the watchdog panics
// otherwise) with a clean coherence check, and the soak as a whole must
// actually have injected faults of every class it claims to.
func TestFaultSoak(t *testing.T) {
	var total FaultResults
	for _, fs := range faultSchedules() {
		fs := fs
		t.Run(fs.name, func(t *testing.T) {
			for _, sc := range faultScenarios() {
				m, _, _ := runFaulted(t, sc, "scheduled", fs, false)
				r := m.Results()
				total.Drops += r.Fault.Drops
				total.Dups += r.Fault.Dups
				total.TimeoutReissues += r.Fault.TimeoutReissues
				total.RingFaultStalls += r.Fault.RingFaultStalls
				total.MemDownCycles += r.Fault.MemDownCycles
				total.NCDownCycles += r.Fault.NCDownCycles
			}
		})
	}
	if total.Drops == 0 || total.Dups == 0 || total.RingFaultStalls == 0 ||
		total.MemDownCycles == 0 || total.NCDownCycles == 0 {
		t.Errorf("soak injected no faults of some class: %+v", total)
	}
	if total.Drops > 0 && total.TimeoutReissues == 0 {
		t.Errorf("packets were dropped but no fetch was re-issued by timeout: %+v", total)
	}
}

// TestFaultTraceEquivalence extends the trace-equivalence harness to
// faulted runs: with a fixed (seed, spec), the faults land on the same
// packets at the same cycles under both cycle loops, so the merged
// text trace must stay byte-identical and every monitored statistic must
// match bit for bit.
func TestFaultTraceEquivalence(t *testing.T) {
	schedules := faultSchedules()
	for _, fs := range []faultSchedule{schedules[2], schedules[5]} {
		fs := fs
		for _, sc := range faultScenarios() {
			sc := sc
			t.Run(fs.name+"/"+sc.name, func(t *testing.T) {
				mn, cyclesN, traceN := runFaulted(t, sc, "naive", fs, true)
				if len(traceN) == 0 {
					t.Fatal("naive faulted run produced an empty trace")
				}
				for _, loop := range equivLoops[1:] {
					m, cycles, tr := runFaulted(t, sc, loop, fs, true)
					compareRuns(t, "naive", loop, mn, m, cyclesN, cycles)
					if !bytes.Equal(traceN, tr) {
						t.Errorf("faulted trace diverges from naive under %s: %s",
							loop, firstTraceDiff(traceN, tr))
					}
				}
			})
		}
	}
}

// TestZeroFaultSpecIsInert pins the zero-fault contract: a config whose
// spec parses to the zero schedule (explicit zero rates) builds the same
// machine as the empty spec — no injector, no new code paths — so traces
// and results are byte-identical.
func TestZeroFaultSpecIsInert(t *testing.T) {
	sc := equivScenarios()[1]
	run := func(spec string) (*Machine, int64, []byte) {
		cfg := sc.cfg()
		cfg.FaultSpec = spec
		cfg.FaultSeed = 99 // must be irrelevant for a zero spec
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableTrace(1 << 14)
		m.Load(sc.load(m))
		cycles := m.Run()
		var buf bytes.Buffer
		if err := m.Tracer().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return m, cycles, buf.Bytes()
	}
	ma, cyclesA, trA := run("")
	mb, cyclesB, trB := run("drop=0,dup=0")
	compareRuns(t, "empty-spec", "zero-spec", ma, mb, cyclesA, cyclesB)
	if !bytes.Equal(trA, trB) {
		t.Errorf("zero spec perturbed the trace: %s", firstTraceDiff(trA, trB))
	}
	r := ma.Results()
	if r.Fault != (FaultResults{}) {
		t.Errorf("fault-free run reports fault effects: %+v", r.Fault)
	}
}

// TestStuckTransactionReport injects a permanent memory wedge and checks
// that the watchdog abort carries the structured stuck-transaction
// report: the stuck processors with state names and retry counts, and
// the wedged component's diagnostics.
func TestStuckTransactionReport(t *testing.T) {
	for _, loop := range equivLoops {
		loop := loop
		t.Run(loop, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 1, StationsPerRing: 2, Rings: 1}
			cfg.Params.L2Lines = 64
			cfg.Params.DeadlockCycles = 25_000
			cfg.FaultSpec = "wedge-mem=0:2000"
			cfg.FaultSeed = 1
			cfg.NaiveLoop = loop == "naive"
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Two pages of lines: round-robin placement homes one page on
			// each station, so some references need the wedged memory no
			// matter where the heap starts.
			addr := m.AllocLines(128)
			m.Load([]proc.Program{
				func(c *proc.Ctx) {
					for i := 0; i < 100_000; i++ {
						c.Write(addr+uint64(i%128)*64, uint64(i))
					}
				},
				func(c *proc.Ctx) {
					for i := 0; i < 100_000; i++ {
						c.Read(addr + uint64(i%128)*64)
					}
				},
			})
			msg := func() (panicMsg string) {
				defer func() { panicMsg, _ = recover().(string) }()
				m.Run()
				return ""
			}()
			if msg == "" {
				t.Fatal("wedged memory did not trip the watchdog")
			}
			for _, want := range []string{
				"no progress",
				"stuck-transaction report at cycle",
				"state=",
				"retries=",
				"wedged=true",
			} {
				if !strings.Contains(msg, want) {
					t.Errorf("report lacks %q:\n%s", want, msg)
				}
			}
		})
	}
}

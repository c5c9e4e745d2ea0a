package main

import (
	"encoding/json"
	"fmt"

	"numachine/internal/core"
	"numachine/internal/mcheck"
	"numachine/internal/serve"
	"numachine/internal/workloads"
)

// workload is one use of the simulator the benchmark measures. start is
// the set-up phase: it builds a loaded machine (or a model checker) and
// returns it ready to run. seeded reports whether the seed changes the
// simulated inputs; the SPLASH and model-checker inputs are fixed by
// their builders.
type workload struct {
	name   string
	desc   string // the inputs, for the report header
	opName string // the unit of work ops_per_s counts
	seeded bool
	start  func(seed uint64, sp *spans) (instance, error)
}

// instance is one set-up workload. run is the measured simulation, check
// validates its output, and results collects the run's results through
// the simulator's public calls: those three are timed. outcome is the
// benchmark's own, untimed work: it encodes the deterministic output
// (digested into the fingerprint) and reads the work counters.
type instance interface {
	run(sp *spans)
	check() error
	results(sp *spans)
	outcome() (outcome, error)
}

// outcome is what one run produced: the deterministic output the
// fingerprint covers, the work done, and the per-layer work counters.
type outcome struct {
	Output   []byte `json:"-"`
	Ops      float64
	Refs     int64 // simulated references (0 for the model checker)
	Cycles   int64 // simulated cycles (0 for the model checker)
	Requests int64 // serve requests that reached a final outcome
	States   int64 // model-checker canonical states
	Counters map[string]float64
}

// benchWorkloads are the benchmark's four workloads, in run order.
func benchWorkloads() []workload {
	return []workload{
		splash("splash-hits", "lu-contig", 4, 288),
		splash("splash-saturated", "ocean", 64, 256),
		serveChaos("serve-chaos", 2400),
		mcheckFaults("mcheck-faults", mcheckSpec()),
	}
}

// findWorkload returns the named benchmark workload.
func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range benchWorkloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}

// splash runs one SPLASH-2 program on procs CPUs of the default 64-CPU
// prototype.
func splash(name, app string, procs, size int) workload {
	return workload{
		name:   name,
		desc:   fmt.Sprintf("%s on %d CPUs, size %d", app, procs, size),
		opName: "simulated reference",
		start: func(_ uint64, sp *spans) (instance, error) {
			var m *core.Machine
			var inst *workloads.Instance
			var err error
			sp.do("core.new", func() { m, err = core.New(core.DefaultConfig()) })
			if err != nil {
				return nil, err
			}
			sp.do("workloads.build", func() { inst, err = workloads.Build(app, m, procs, size) })
			if err != nil {
				return nil, err
			}
			sp.do("core.load", func() { m.Load(inst.Progs) })
			return &splashRun{m: m, inst: inst}, nil
		},
	}
}

type splashRun struct {
	m      *core.Machine
	inst   *workloads.Instance
	cycles int64
	r      core.Results
}

func (s *splashRun) run(sp *spans) { sp.do("core.run", func() { s.cycles = s.m.Run() }) }

func (s *splashRun) check() error { return s.inst.Check() }

func (s *splashRun) results(sp *spans) { sp.do("core.results", func() { s.r = s.m.Results() }) }

func (s *splashRun) outcome() (outcome, error) { return machineOutcome(s.m, s.r, s.cycles) }

// Resilience scenario of BENCH_6.json: a closed loop with deadline kills,
// retries, hedging, the circuit breaker and shedding live under a
// memory-freeze and ring-degrade fault schedule.
const (
	chaosSpec = "closed=8,procs=8,tenants=4,span=512,qcap=12," +
		"discipline=edf,policy=least-load," +
		"class=urgent:2:6:10:25:6000,class=interactive:3:12:20:25:15000,class=batch:1:48:60:50:0," +
		"kill=2,retries=2,backoff=200:1600,retry-budget=48,hedge=1500,breaker=180:2500,shed=on"
	chaosFaults = "freeze-mem=3000:500,degrade-ring=5000:300,timeout=1500"
	// chaosFaultSeedOffset maps the workload seed to the fault seed, so
	// seed 1 reproduces BENCH_6's canonical pair (seed 1, fault seed 21).
	chaosFaultSeedOffset = 20
)

// serveChaos runs the serving layer's resilience scenario with requests
// arrivals. The seed drives the load generator, the fault injector and
// the retry jitter.
func serveChaos(name string, requests int) workload {
	return workload{
		name: name,
		desc: fmt.Sprintf("serve resilience spec, requests=%d, faults %s", requests, chaosFaults),
		// A request counts once it reaches a final outcome: completed,
		// dropped, failed or shed.
		opName: "request",
		seeded: true,
		start: func(seed uint64, sp *spans) (instance, error) {
			spec, err := serve.ParseSpec(fmt.Sprintf("requests=%d,%s", requests, chaosSpec))
			if err != nil {
				return nil, err
			}
			cfg := core.DefaultConfig()
			cfg.FaultSpec = chaosFaults
			cfg.FaultSeed = seed + chaosFaultSeedOffset
			cfg.Params.RetryBackoff = true
			cfg.Params.RetryJitterSeed = cfg.FaultSeed
			var m *core.Machine
			sp.do("core.new", func() { m, err = core.New(cfg) })
			if err != nil {
				return nil, err
			}
			var ctl *serve.Controller
			sp.do("serve.new", func() { ctl, err = serve.New(m, spec, seed) })
			if err != nil {
				return nil, err
			}
			return &serveRun{m: m, ctl: ctl}, nil
		},
	}
}

type serveRun struct {
	m      *core.Machine
	ctl    *serve.Controller
	cycles int64
	r      core.Results
}

// run covers serve.Run, which loads the worker programs and runs the
// machine under the dispatcher's drive hook.
func (s *serveRun) run(sp *spans) { sp.do("serve.run", func() { s.cycles = s.ctl.Run() }) }

// check requires every arrival to reach exactly one final outcome.
func (s *serveRun) check() error {
	t := s.ctl.Report().Total
	if t.Arrived == 0 || t.Arrived != t.Completed+t.Dropped+t.Failed+t.Shed {
		return fmt.Errorf("serve: arrived %d != completed %d + dropped %d + failed %d + shed %d",
			t.Arrived, t.Completed, t.Dropped, t.Failed, t.Shed)
	}
	return nil
}

func (s *serveRun) results(sp *spans) { sp.do("core.results", func() { s.r = s.m.Results() }) }

func (s *serveRun) outcome() (outcome, error) {
	out, err := machineOutcome(s.m, s.r, s.cycles)
	if err != nil {
		return out, err
	}
	t := s.r.Serve.Total
	out.Requests = t.Completed + t.Dropped + t.Failed + t.Shed
	out.Ops = float64(out.Requests)
	c := out.Counters
	c["serve.arrived"] = float64(t.Arrived)
	c["serve.completed"] = float64(t.Completed)
	c["serve.goodput"] = float64(t.Goodput())
	c["serve.timeouts"] = float64(t.Timeouts)
	c["serve.retries"] = float64(t.Retries)
	c["serve.hedges"] = float64(t.Hedges)
	c["serve.shed"] = float64(t.Shed)
	return out, nil
}

// machineOutcome digests a machine run's Results (serve report included)
// and cycle count, and reads the per-layer work counters from Results
// and the components' exported Stats.
func machineOutcome(m *core.Machine, r core.Results, cycles int64) (outcome, error) {
	output, err := json.Marshal(struct {
		Cycles  int64
		Results core.Results
	}{cycles, r})
	if err != nil {
		return outcome{}, err
	}
	refs := r.Proc.Reads + r.Proc.Writes
	var transfers, injected, delivered, stalls int64
	for _, b := range m.Buses {
		transfers += b.Transfers.Value()
	}
	for _, ri := range m.RIs {
		injected += ri.Injected.Value()
		delivered += ri.Delivered.Value()
	}
	for _, lr := range m.Locals {
		stalls += lr.Stalls.Value()
	}
	if m.Central != nil {
		stalls += m.Central.Stalls.Value()
	}
	ff := m.FastForwarded.Value()
	c := map[string]float64{
		"proc.refs":               float64(refs),
		"proc.l1_hits":            float64(r.Proc.L1Hits),
		"proc.l2_hits":            float64(r.Proc.L2Hits),
		"proc.misses":             float64(r.Proc.Misses),
		"proc.nak_retries":        float64(r.Proc.NAKRetries),
		"proc.stall_cycles":       float64(r.Proc.StallCycles),
		"bus.transfers":           float64(transfers),
		"bus.util":                r.BusUtil,
		"memory.transactions":     float64(r.Mem.Transactions),
		"memory.naks":             float64(r.Mem.NAKs),
		"memory.invalidations":    float64(r.Mem.InvalidatesSent),
		"netcache.requests":       float64(r.NC.Requests),
		"netcache.hit_rate":       r.NC.HitRate(),
		"netcache.remote_fetches": float64(r.NC.RemoteFetches),
		"ring.injected":           float64(injected),
		"ring.delivered":          float64(delivered),
		"ring.stalls":             float64(stalls),
		"ring.local_util":         r.LocalRingUtil,
		"ring.central_util":       r.CentralRingUtil,
		"core.sim_cycles":         float64(r.Cycles),
		"core.ff_cycles":          float64(ff),
		"core.ff_share":           float64(ff) / float64(max(r.Cycles, 1)),
		"fault.drops":             float64(r.Fault.Drops),
		"fault.dups":              float64(r.Fault.Dups),
		"fault.timeout_reissues":  float64(r.Fault.TimeoutReissues),
	}
	return outcome{Output: output, Ops: float64(refs), Refs: refs, Cycles: r.Cycles, Counters: c}, nil
}

// mcheckSpec is the model checker's flagship spec with fault choices on:
// every fault-injector drop/dup decision becomes a choice point, at most
// one fault per path.
func mcheckSpec() mcheck.Spec {
	spec := mcheck.DefaultSpec()
	spec.FaultChoices = true
	spec.MaxFaults = 1
	return spec
}

// mcheckFaults explores spec's whole state space.
func mcheckFaults(name string, spec mcheck.Spec) workload {
	return workload{
		name: name,
		desc: fmt.Sprintf("mcheck %d stations x %d CPUs, %d line(s), fault choices %v, max faults %d",
			spec.Stations, spec.Procs, spec.Lines, spec.FaultChoices, spec.MaxFaults),
		opName: "canonical state",
		start: func(_ uint64, sp *spans) (instance, error) {
			var c *mcheck.Checker
			var err error
			sp.do("mcheck.new", func() { c, err = mcheck.New(spec) })
			if err != nil {
				return nil, err
			}
			return &mcheckRun{c: c}, nil
		},
	}
}

type mcheckRun struct {
	c   *mcheck.Checker
	res *mcheck.Result
}

func (s *mcheckRun) run(sp *spans) { sp.do("mcheck.run", func() { s.res = s.c.Run() }) }

// check requires a complete exploration with no violations.
func (s *mcheckRun) check() error {
	if !s.res.Complete || len(s.res.Violations) > 0 {
		return fmt.Errorf("mcheck: %s", s.res)
	}
	return nil
}

// results has nothing to collect: Run returned the result.
func (s *mcheckRun) results(*spans) {}

func (s *mcheckRun) outcome() (outcome, error) {
	r := s.res
	return outcome{
		Output: []byte(r.String()),
		Ops:    float64(r.States),
		States: int64(r.States),
		Counters: map[string]float64{
			"mcheck.states":       float64(r.States),
			"mcheck.paths":        float64(r.Paths),
			"mcheck.pruned_share": float64(r.Pruned) / float64(max(r.Paths, 1)),
		},
	}, nil
}

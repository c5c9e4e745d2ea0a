package main

import (
	"math"
	"time"
)

// metric is one reported number: its name, unit, and its value over a
// measurement.
type metric struct {
	name, unit string
	value      func(ms *measurement) stat
}

// perSample is a metric taken as the median over the samples keep selects.
func perSample(name, unit string, keep func(*sample) bool, f func(*sample) float64) metric {
	return metric{name, unit, func(ms *measurement) stat { return ms.over(keep, f) }}
}

const mb = 1e6

// endToEnd are the metrics a user of the simulator sees, over the
// untraced samples. An op is the workload's unit of work (workload.opName).
var endToEnd = []metric{
	perSample("setup_s", "s", untraced, func(s *sample) float64 { return s.Setup.Seconds() }),
	perSample("wall_s", "s", untraced, func(s *sample) float64 { return s.wall().Seconds() }),
	perSample("ops_per_s", "1/s", untraced, func(s *sample) float64 { return s.Out.Ops / s.runPhaseSeconds() }),
	perSample("allocs_per_op", "count", untraced, func(s *sample) float64 {
		return float64(s.RunMallocs) / math.Max(s.Out.Ops, 1)
	}),
	perSample("alloc_mb", "MB", untraced, func(s *sample) float64 { return float64(s.AllocBytes) / mb }),
	perSample("heap_mb", "MB", untraced, func(s *sample) float64 { return float64(s.HeapBytes) / mb }),
}

// workloadRates are rates that exist on only some workloads. They are
// printed beside the end-to-end metrics but not gated; ops_per_s is the
// gated rate.
var workloadRates = []struct {
	metric
	applies func(o *outcome) bool
}{
	{perSample("sim_cycles_per_s", "1/s", untraced, func(s *sample) float64 { return float64(s.Out.Cycles) / s.runPhaseSeconds() }),
		func(o *outcome) bool { return o.Cycles > 0 }},
	{perSample("refs_per_s", "1/s", untraced, func(s *sample) float64 { return float64(s.Out.Refs) / s.runPhaseSeconds() }),
		func(o *outcome) bool { return o.Refs > 0 }},
	{perSample("allocs_per_ref", "count", untraced, func(s *sample) float64 {
		return float64(s.RunMallocs) / float64(max(s.Out.Refs, 1))
	}), func(o *outcome) bool { return o.Refs > 0 }},
	{perSample("requests_per_s", "1/s", untraced, func(s *sample) float64 { return float64(s.Out.Requests) / s.runPhaseSeconds() }),
		func(o *outcome) bool { return o.Requests > 0 }},
	{perSample("states_per_s", "1/s", untraced, func(s *sample) float64 { return float64(s.Out.States) / s.runPhaseSeconds() }),
		func(o *outcome) bool { return o.States > 0 }},
}

// counterUnits lists the per-layer work counters in report order. They
// are deterministic; a workload that does not reach a layer reports 0.
var counterUnits = []struct{ name, unit string }{
	{"proc.refs", "count"}, {"proc.l1_hits", "count"}, {"proc.l2_hits", "count"},
	{"proc.misses", "count"}, {"proc.nak_retries", "count"}, {"proc.stall_cycles", "cycles"},
	{"bus.transfers", "count"}, {"bus.util", "ratio"},
	{"memory.transactions", "count"}, {"memory.naks", "count"}, {"memory.invalidations", "count"},
	{"netcache.requests", "count"}, {"netcache.hit_rate", "ratio"}, {"netcache.remote_fetches", "count"},
	{"ring.injected", "count"}, {"ring.delivered", "count"}, {"ring.stalls", "count"},
	{"ring.local_util", "ratio"}, {"ring.central_util", "ratio"},
	{"core.sim_cycles", "cycles"}, {"core.ff_cycles", "cycles"}, {"core.ff_share", "ratio"},
	{"fault.drops", "count"}, {"fault.dups", "count"}, {"fault.timeout_reissues", "count"},
	{"serve.arrived", "count"}, {"serve.completed", "count"}, {"serve.goodput", "count"},
	{"serve.timeouts", "count"}, {"serve.retries", "count"}, {"serve.hedges", "count"},
	{"serve.shed", "count"},
	{"mcheck.states", "count"}, {"mcheck.paths", "count"}, {"mcheck.pruned_share", "ratio"},
}

// perLayer builds the per-layer metrics, over the traced samples: phase
// spans, self-time shares of the CPU profile, work counters, and the Go
// runtime's collector and allocator activity.
func perLayer() []metric {
	phase := func(name string, f func(*sample) time.Duration) metric {
		return perSample(name, "s", tracedOnly, func(s *sample) float64 { return f(s).Seconds() })
	}
	out := []metric{
		phase("span.setup_s", func(s *sample) time.Duration { return s.Setup }),
		phase("span.run_s", func(s *sample) time.Duration { return s.Run }),
		phase("span.check_s", func(s *sample) time.Duration { return s.Check }),
		phase("span.report_s", func(s *sample) time.Duration { return s.Report }),
	}
	for _, b := range selfBuckets() {
		out = append(out, metric{b, "%", func(ms *measurement) stat {
			v := ms.prof.share(b)
			return stat{median: v, min: v, max: v, n: ms.count(tracedOnly)}
		}})
	}
	for _, c := range counterUnits {
		out = append(out, perSample(c.name, c.unit, tracedOnly, func(s *sample) float64 { return s.Out.Counters[c.name] }))
	}
	return append(out,
		perSample("runtime.gc_cycles", "count", tracedOnly, func(s *sample) float64 { return float64(s.GCCycles) }),
		perSample("runtime.gc_pause_s", "s", tracedOnly, func(s *sample) float64 { return s.GCPause.Seconds() }),
		perSample("runtime.mallocs", "count", tracedOnly, func(s *sample) float64 { return float64(s.Mallocs) }),
		perSample("runtime.retained_mb", "MB", tracedOnly, func(s *sample) float64 { return float64(s.RetainedBytes) / mb }),
		perSample("runtime.goroutines_left", "count", tracedOnly, func(s *sample) float64 { return float64(s.Goroutines) }),
	)
}

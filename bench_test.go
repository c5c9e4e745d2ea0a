// Benchmarks regenerating the paper's evaluation, one per table and
// figure (§4). Each benchmark iteration runs the complete experiment on a
// scaled-down input (full-size record runs live in EXPERIMENTS.md and are
// produced by cmd/experiments). The interesting output is the custom
// metrics — cycles, rates, utilizations — rather than ns/op.
//
// Run with: go test -bench=. -benchmem -benchtime 1x
package numachine_test

import (
	"strings"
	"testing"

	"numachine/internal/core"
	"numachine/internal/experiments"
	"numachine/internal/workloads"
)

// benchSizes are reduced problem sizes so a full -bench=. sweep finishes
// in minutes; the shapes (who wins, rough factors) match the bigger runs.
var benchSizes = map[string]int{
	"radix": 8192, "fft": 4096,
	"lu-contig": 96, "lu-noncontig": 96, "cholesky": 96,
	"barnes": 256, "ocean": 64,
	"water-nsq": 64, "water-spatial": 64,
	"fmm": 256, "raytrace": 24, "radiosity": 96,
}

func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Params.L2Lines = 2048
	cfg.Params.NCLines = 8192
	return cfg
}

// BenchmarkTable1Latencies regenerates Table 1: the nine contention-free
// latencies. Reported metrics are the measured cycle counts.
func BenchmarkTable1Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			scope := strings.NewReplacer(" ", "", ",", "_").Replace(r.Scope)
			b.ReportMetric(float64(r.Cycles), scope+"/"+r.Access+"_cyc")
		}
	}
}

// speedupBench runs one Figure 13/14 curve at P = 1, 16, 64 and reports
// the P=64 speedup.
func speedupBench(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Speedup(benchConfig(), name, benchSizes[name], []int{1, 16, 64}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].Speedup, "speedup64x")
		b.ReportMetric(float64(pts[0].Cycles), "t1_cycles")
	}
}

// BenchmarkFig13KernelSpeedup regenerates Figure 13 (kernels).
func BenchmarkFig13KernelSpeedup(b *testing.B) {
	for _, name := range workloads.Kernels() {
		b.Run(name, func(b *testing.B) { speedupBench(b, name) })
	}
}

// BenchmarkFig14AppSpeedup regenerates Figure 14 (applications).
func BenchmarkFig14AppSpeedup(b *testing.B) {
	for _, name := range workloads.Applications() {
		b.Run(name, func(b *testing.B) { speedupBench(b, name) })
	}
}

// ncFigureBench runs one of the six Figure 15-18 workloads at 64
// processors and reports the NC and interconnect metrics.
func ncFigureBench(b *testing.B, name string, metric func(core.Results) (string, float64)) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		inst, err := workloads.Build(name, m, 64, benchSizes[name])
		if err != nil {
			b.Fatal(err)
		}
		m.Load(inst.Progs)
		m.Run()
		if err := inst.Check(); err != nil {
			b.Fatal(err)
		}
		r := m.Results()
		label, v := metric(r)
		b.ReportMetric(v, label)
	}
}

// BenchmarkFig15NCHitRate regenerates Figure 15: NC total hit rate.
func BenchmarkFig15NCHitRate(b *testing.B) {
	for _, name := range workloads.NCWorkloads() {
		b.Run(name, func(b *testing.B) {
			ncFigureBench(b, name, func(r core.Results) (string, float64) {
				return "hit_pct", 100 * r.NC.HitRate()
			})
		})
	}
}

// BenchmarkFig16NCCombining regenerates Figure 16: NC combining rate.
func BenchmarkFig16NCCombining(b *testing.B) {
	for _, name := range workloads.NCWorkloads() {
		b.Run(name, func(b *testing.B) {
			ncFigureBench(b, name, func(r core.Results) (string, float64) {
				return "combining_pct", 100 * r.NC.CombiningRate()
			})
		})
	}
}

// BenchmarkFig17Utilization regenerates Figure 17: bus and ring
// utilizations.
func BenchmarkFig17Utilization(b *testing.B) {
	for _, name := range workloads.NCWorkloads() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				m, _ := core.New(cfg)
				inst, err := workloads.Build(name, m, 64, benchSizes[name])
				if err != nil {
					b.Fatal(err)
				}
				m.Load(inst.Progs)
				m.Run()
				r := m.Results()
				b.ReportMetric(100*r.BusUtil, "bus_pct")
				b.ReportMetric(100*r.LocalRingUtil, "lring_pct")
				b.ReportMetric(100*r.CentralRingUtil, "cring_pct")
			}
		})
	}
}

// BenchmarkFig18RingDelays regenerates Figure 18: ring interface delays.
func BenchmarkFig18RingDelays(b *testing.B) {
	for _, name := range workloads.NCWorkloads() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				m, _ := core.New(cfg)
				inst, err := workloads.Build(name, m, 64, benchSizes[name])
				if err != nil {
					b.Fatal(err)
				}
				m.Load(inst.Progs)
				m.Run()
				r := m.Results()
				b.ReportMetric(r.RISendDelay, "send_cyc")
				b.ReportMetric(r.RIDownSink, "down_sink_cyc")
				b.ReportMetric(r.RIDownNonsink, "down_nonsink_cyc")
				b.ReportMetric(r.IRIUpDelay, "iri_up_cyc")
			}
		})
	}
}

// BenchmarkTable3FalseRemotes regenerates Table 3 with a small NC (the
// effect needs ejections; the prototype-size NC yields the paper's ~0%).
func BenchmarkTable3FalseRemotes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Params.NCLines = 512
		for _, name := range []string{"cholesky", "ocean", "radix"} {
			m, _ := core.New(cfg)
			inst, err := workloads.Build(name, m, 64, benchSizes[name])
			if err != nil {
				b.Fatal(err)
			}
			m.Load(inst.Progs)
			m.Run()
			r := m.Results()
			b.ReportMetric(100*r.NC.FalseRemoteRate(), name+"_false_pct")
		}
	}
}

// BenchmarkAblationSCLocking regenerates the §2.3 claim that the
// sequential-consistency locking costs only ~2% overall.
func BenchmarkAblationSCLocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSCLocking(benchConfig(), 64, []string{"ocean", "radix"}, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			b.ReportMetric(r.Delta(), r.Workload+"_delta_pct")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles of
// simulated machine time per wall second) on a busy 64-processor run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		m, _ := core.New(cfg)
		inst, err := workloads.Build("ocean", m, 64, 64)
		if err != nil {
			b.Fatal(err)
		}
		m.Load(inst.Progs)
		cycles := m.Run()
		b.ReportMetric(float64(cycles), "sim_cycles")
	}
}

// BenchmarkCycleLoop compares the two cycle loops on the same workloads:
// the naive tick-everything reference and the event-aware quiescence
// scheduler. Both produce bit-identical results
// (internal/core/equivalence_test.go); the scheduler skips ticks of
// provably idle components and fast-forwards fully quiescent stretches,
// so the ratio is the optimized loop's speedup. CI runs this pair with
// -benchmem and archives the output, recording the perf trajectory per
// PR.
func BenchmarkCycleLoop(b *testing.B) {
	workset := []struct {
		workload string
		procs    int
	}{{"ocean", 64}, {"water-nsq", 64}}
	for _, w := range workset {
		for _, loop := range []string{"naive", "scheduler"} {
			b.Run(w.workload+"/"+loop, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := benchConfig()
					cfg.NaiveLoop = loop == "naive"
					m, err := core.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					inst, err := workloads.Build(w.workload, m, w.procs, benchSizes[w.workload])
					if err != nil {
						b.Fatal(err)
					}
					m.Load(inst.Progs)
					cycles := m.Run()
					if err := inst.Check(); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(cycles), "sim_cycles")
					b.ReportMetric(float64(m.FastForwarded.Value()), "ff_cycles")
				}
			})
		}
	}
}

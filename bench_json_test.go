// Machine-readable benchmark manifest. TestBenchJSON is disabled unless
// BENCH_JSON names an output path; CI runs it as the bench job and
// uploads the file as an artifact, then
// cmd/benchguard compares it against the committed baseline
// (bench_baseline_6.json). The manifest has two sections:
//
//   - workloads: each hit-heavy workload measured with the front-end hit
//     fast path on and off under the serial scheduled loop, recording
//     absolute throughput, the fast path's speedup, and allocations per
//     reference (a hard benchguard gate — allocation counts are
//     deterministic, unlike wall clock);
//   - cycle_loops: the scheduled loop on p=16 and p=64 runs of the same
//     workload, the manifest's only 16- and 64-processor rows with a hard
//     allocs/ref gate. go_max_procs is recorded so benchguard only
//     compares wall-clock rows between runs with the same core budget.
package numachine_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"numachine/internal/core"
	"numachine/internal/serve"
	"numachine/internal/workloads"
)

// benchModeResult is one (workload, FastHits setting) measurement.
type benchModeResult struct {
	WallNS        int64   `json:"wall_ns"`
	RefsPerSec    float64 `json:"refs_per_sec"`
	NSPerSimCycle float64 `json:"ns_per_sim_cycle"`
	AllocsPerRef  float64 `json:"allocs_per_ref"`
}

// benchEntry is one workload's row in the manifest.
type benchEntry struct {
	Name      string          `json:"name"`
	Procs     int             `json:"procs"`
	Size      int             `json:"size"`
	Refs      int64           `json:"refs"`
	SimCycles int64           `json:"sim_cycles"`
	FastHits  benchModeResult `json:"fast_hits"`
	SlowPath  benchModeResult `json:"slow_path"`
	// Speedup is fast-path refs/sec over slow-path refs/sec.
	Speedup float64 `json:"speedup_refs_per_sec"`
}

// benchLoopMode is one cycle-loop measurement of a workload run.
type benchLoopMode struct {
	WallNS        int64   `json:"wall_ns"`
	NSPerSimCycle float64 `json:"ns_per_sim_cycle"`
	AllocsPerRef  float64 `json:"allocs_per_ref"`
}

// benchLoopEntry is the scheduled loop on one workload run (fast path on).
type benchLoopEntry struct {
	Name      string        `json:"name"`
	Procs     int           `json:"procs"`
	Size      int           `json:"size"`
	Refs      int64         `json:"refs"`
	SimCycles int64         `json:"sim_cycles"`
	Scheduled benchLoopMode `json:"scheduled"`
}

// benchServeEntry is the serving-layer saturation row: one canonical
// closed-loop scenario at full worker saturation. Throughput is in
// simulated time (requests per kilocycle), so it is deterministic and
// benchguard can compare it across hosts; wall_ns is informational.
type benchServeEntry struct {
	Spec              string  `json:"spec"`
	Seed              uint64  `json:"seed"`
	Requests          int64   `json:"requests"`
	SimCycles         int64   `json:"sim_cycles"`
	WallNS            int64   `json:"wall_ns"`
	ThroughputPerKCyc float64 `json:"throughput_per_kcycle"`
}

// benchResilienceEntry is the serving-resilience goodput row: the
// canonical chaos scenario (deadline kills, retries, hedging, breaker
// and shedding live under a degrade/freeze fault schedule), recording
// SLA-met completions per kilocycle. Everything but wall_ns is in
// simulated time and therefore deterministic across hosts.
type benchResilienceEntry struct {
	Spec           string  `json:"spec"`
	FaultSpec      string  `json:"fault_spec"`
	Seed           uint64  `json:"seed"`
	FaultSeed      uint64  `json:"fault_seed"`
	Arrived        int64   `json:"arrived"`
	Goodput        int64   `json:"goodput"` // completions that met their SLA
	Timeouts       int64   `json:"timeouts"`
	Retries        int64   `json:"retries"`
	Shed           int64   `json:"shed"`
	SimCycles      int64   `json:"sim_cycles"`
	WallNS         int64   `json:"wall_ns"`
	GoodputPerKCyc float64 `json:"goodput_per_kcycle"`
}

// benchFile is the BENCH_6.json schema. The serve sections are optional
// so older manifests stay valid; benchguard compares them only when both
// sides carry one.
type benchFile struct {
	Schema          string                `json:"schema"`
	Loop            string                `json:"loop"` // loop of the workloads section
	GoMaxProcs      int                   `json:"go_max_procs"`
	Workloads       []benchEntry          `json:"workloads"`
	CycleLoops      []benchLoopEntry      `json:"cycle_loops"`
	Serve           *benchServeEntry      `json:"serve,omitempty"`
	ServeResilience *benchResilienceEntry `json:"serve_resilience,omitempty"`
}

// benchServeSpec is the canonical saturation scenario: a closed loop deep
// enough to keep every worker busy, so completed/kilocycle measures the
// serving layer's capacity rather than the arrival process.
const benchServeSpec = "closed=16,requests=240,procs=8,tenants=4,span=512,depth=2," +
	"discipline=edf,policy=locality," +
	"class=interactive:4:8:20:25:4000,class=batch:1:64:80:50:0"

// measureServe runs the canonical serving scenario once.
func measureServe(t *testing.T) benchServeEntry {
	t.Helper()
	sp, err := serve.ParseSpec(benchServeSpec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := serve.New(m, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ctl.Run()
	wall := time.Since(start)
	sv := m.Results().Serve
	if sv.Total.Completed != int64(sp.Requests) {
		t.Fatalf("serve scenario completed %d of %d requests", sv.Total.Completed, sp.Requests)
	}
	return benchServeEntry{
		Spec:              sv.Spec,
		Seed:              sv.Seed,
		Requests:          sv.Total.Completed,
		SimCycles:         sv.Cycles,
		WallNS:            wall.Nanoseconds(),
		ThroughputPerKCyc: sv.Throughput(),
	}
}

// benchResilienceSpec is the canonical chaos scenario: the closed-loop
// mix from the serve chaos soak with every resilience mechanism enabled,
// run under a degrade/freeze fault schedule. Goodput per kilocycle is
// the soft-gated metric: SLA-met completions per unit of simulated time.
const (
	benchResilienceSpec = "closed=8,requests=240,procs=8,tenants=4,span=512,qcap=12," +
		"discipline=edf,policy=least-load," +
		"class=urgent:2:6:10:25:6000,class=interactive:3:12:20:25:15000,class=batch:1:48:60:50:0," +
		"kill=2,retries=2,backoff=200:1600,retry-budget=48,hedge=1500,breaker=180:2500,shed=on"
	benchResilienceFaults    = "freeze-mem=3000:500,degrade-ring=5000:300,timeout=1500"
	benchResilienceFaultSeed = 21
)

// measureResilience runs the canonical chaos scenario once.
func measureResilience(t *testing.T) benchResilienceEntry {
	t.Helper()
	sp, err := serve.ParseSpec(benchResilienceSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := benchConfig()
	cfg.FaultSpec = benchResilienceFaults
	cfg.FaultSeed = benchResilienceFaultSeed
	cfg.Params.RetryBackoff = true
	cfg.Params.RetryJitterSeed = benchResilienceFaultSeed
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := serve.New(m, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ctl.Run()
	wall := time.Since(start)
	sv := m.Results().Serve
	tot := sv.Total
	if tot.Arrived != tot.Completed+tot.Dropped+tot.Failed+tot.Shed {
		t.Fatalf("resilience scenario leaked requests: arrived=%d completed=%d dropped=%d failed=%d shed=%d",
			tot.Arrived, tot.Completed, tot.Dropped, tot.Failed, tot.Shed)
	}
	return benchResilienceEntry{
		Spec:           sv.Spec,
		FaultSpec:      benchResilienceFaults,
		Seed:           sv.Seed,
		FaultSeed:      benchResilienceFaultSeed,
		Arrived:        tot.Arrived,
		Goodput:        tot.Goodput(),
		Timeouts:       tot.Timeouts,
		Retries:        tot.Retries,
		Shed:           tot.Shed,
		SimCycles:      sv.Cycles,
		WallNS:         wall.Nanoseconds(),
		GoodputPerKCyc: sv.GoodputPerKCycle(),
	}
}

// benchJSONWorkloads are the manifest rows: the hit-heavy trio the fast
// path targets at low processor counts (where cache hits dominate and the
// handshake is the bottleneck), plus higher-contention and miss-heavier
// rows as honest controls. Every row runs on the full default machine —
// the same convention the experiment sweeps use — so procs selects how
// many CPUs receive programs, not the machine geometry.
var benchJSONWorkloads = []struct {
	name        string
	procs, size int
}{
	{"radix", 1, 8192},
	{"radix", 4, 8192},
	{"lu-contig", 1, 96},
	{"lu-contig", 4, 96},
	{"water-nsq", 1, 64},
	{"water-nsq", 4, 64},
	{"ocean", 1, 64},
	{"ocean", 4, 64},
	{"cholesky", 4, 96},
	{"lu-noncontig", 4, 96},
	{"fft", 4, 4096},
}

// benchLoopWorkloads are the cycle_loops rows: the same workload at a
// mid-size and full-machine processor count.
var benchLoopWorkloads = []struct {
	name        string
	procs, size int
}{
	{"ocean", 16, 64},
	{"ocean", 64, 64},
	{"water-nsq", 16, 64},
	{"water-nsq", 64, 64},
}

// measureWorkload runs one workload under the scheduled loop and returns
// wall time, malloc count, completed references and simulated cycles. The
// simulation itself is deterministic; only the wall clock varies.
func measureWorkload(t *testing.T, name string, procs, size int, fastHits bool) (wall time.Duration, mallocs uint64, refs, cycles int64) {
	t.Helper()
	cfg := benchConfig()
	cfg.FastHits = fastHits
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workloads.Build(name, m, procs, size)
	if err != nil {
		t.Fatal(err)
	}
	m.Load(inst.Progs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	cycles = m.Run()
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	if err := inst.Check(); err != nil {
		t.Fatalf("%s (fast=%v): %v", name, fastHits, err)
	}
	r := m.Results()
	return wall, after.Mallocs - before.Mallocs, r.Proc.Reads + r.Proc.Writes, cycles
}

// benchMode measures one mode with a warm-up discarded and the faster of
// two timed repetitions kept (the usual defence against scheduler noise).
func benchMode(t *testing.T, name string, procs, size int, fastHits bool) (benchModeResult, int64, int64) {
	t.Helper()
	var best time.Duration
	var mallocs uint64
	var refs, cycles int64
	for rep := 0; rep < 2; rep++ {
		wall, ma, re, cy := measureWorkload(t, name, procs, size, fastHits)
		if rep > 0 && re != refs {
			t.Fatalf("%s: reference count changed between repetitions: %d vs %d", name, refs, re)
		}
		refs, cycles, mallocs = re, cy, ma
		if best == 0 || wall < best {
			best = wall
		}
	}
	return benchModeResult{
		WallNS:        best.Nanoseconds(),
		RefsPerSec:    float64(refs) / best.Seconds(),
		NSPerSimCycle: float64(best.Nanoseconds()) / float64(cycles),
		AllocsPerRef:  float64(mallocs) / float64(refs),
	}, refs, cycles
}

// TestBenchJSON emits the manifest. Gated behind BENCH_JSON so ordinary
// `go test ./...` runs stay fast and timing-free.
func TestBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<path> to emit the benchmark manifest")
	}
	file := benchFile{
		Schema:     "numachine-bench/6",
		Loop:       "scheduled",
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, w := range benchJSONWorkloads {
		fast, refs, cycles := benchMode(t, w.name, w.procs, w.size, true)
		slow, refsOff, cyclesOff := benchMode(t, w.name, w.procs, w.size, false)
		if refs != refsOff || cycles != cyclesOff {
			t.Errorf("%s: fast/slow runs disagree: refs %d vs %d, cycles %d vs %d",
				w.name, refs, refsOff, cycles, cyclesOff)
		}
		file.Workloads = append(file.Workloads, benchEntry{
			Name: w.name, Procs: w.procs, Size: w.size,
			Refs: refs, SimCycles: cycles,
			FastHits: fast, SlowPath: slow,
			Speedup: fast.RefsPerSec / slow.RefsPerSec,
		})
		t.Logf("%-10s refs=%d cycles=%d fast=%.0f refs/s slow=%.0f refs/s speedup=%.2fx",
			w.name, refs, cycles, fast.RefsPerSec, slow.RefsPerSec, fast.RefsPerSec/slow.RefsPerSec)
	}
	for _, w := range benchLoopWorkloads {
		sched, refs, cycles := benchMode(t, w.name, w.procs, w.size, true)
		file.CycleLoops = append(file.CycleLoops, benchLoopEntry{
			Name: w.name, Procs: w.procs, Size: w.size,
			Refs: refs, SimCycles: cycles,
			Scheduled: benchLoopMode{
				WallNS: sched.WallNS, NSPerSimCycle: sched.NSPerSimCycle, AllocsPerRef: sched.AllocsPerRef,
			},
		})
		t.Logf("%-10s p=%-2d scheduled %.0fms %.4f allocs/ref",
			w.name, w.procs, float64(sched.WallNS)/1e6, sched.AllocsPerRef)
	}
	sv := measureServe(t)
	file.Serve = &sv
	t.Logf("serve      requests=%d cycles=%d throughput=%.3f req/kcycle",
		sv.Requests, sv.SimCycles, sv.ThroughputPerKCyc)
	rz := measureResilience(t)
	file.ServeResilience = &rz
	t.Logf("resilience arrived=%d goodput=%d (%.3f/kcycle) timeouts=%d retries=%d shed=%d",
		rz.Arrived, rz.Goodput, rz.GoodputPerKCyc, rz.Timeouts, rz.Retries, rz.Shed)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

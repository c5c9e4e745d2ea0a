// benchguard compares a freshly generated benchmark manifest (BENCH_6.json,
// produced by `BENCH_JSON=... go test -run TestBenchJSON .`) against the
// committed baseline and fails on two classes of regression:
//
//   - Throughput: per-row fast-hits refs/sec against the baseline row, with
//     a generous default threshold (20%) meant to catch structural
//     regressions (a dead horizon tier, a serialized loop), not scheduler
//     jitter. Wall-clock rows are only compared when the two manifests were
//     generated with the same go_max_procs — a 1-core baseline says nothing
//     about 4-core throughput and vice versa. -soft downgrades throughput
//     failures to warnings for noisy runners.
//
//   - Allocations: per-row allocs_per_ref against the baseline row. The
//     simulator is deterministic, so allocation counts are too; this gate
//     is HARD — -soft does not downgrade it — and applies regardless of
//     go_max_procs. A small fractional+absolute slack absorbs Go-runtime
//     background allocation drift without letting a lost pool through.
//     The cycle_loops rows (p=16 and p=64) carry the same hard gate on the
//     scheduled loop's allocs_per_ref.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type mode struct {
	WallNS       int64   `json:"wall_ns"`
	RefsPerSec   float64 `json:"refs_per_sec"`
	NSPerCycle   float64 `json:"ns_per_sim_cycle"`
	AllocsPerRef float64 `json:"allocs_per_ref"`
}

type entry struct {
	Name      string  `json:"name"`
	Procs     int     `json:"procs"`
	Size      int     `json:"size"`
	Refs      int64   `json:"refs"`
	SimCycles int64   `json:"sim_cycles"`
	FastHits  mode    `json:"fast_hits"`
	SlowPath  mode    `json:"slow_path"`
	Speedup   float64 `json:"speedup_refs_per_sec"`
}

type loopMode struct {
	WallNS       int64   `json:"wall_ns"`
	NSPerCycle   float64 `json:"ns_per_sim_cycle"`
	AllocsPerRef float64 `json:"allocs_per_ref"`
}

type loopEntry struct {
	Name      string   `json:"name"`
	Procs     int      `json:"procs"`
	Size      int      `json:"size"`
	Refs      int64    `json:"refs"`
	SimCycles int64    `json:"sim_cycles"`
	Scheduled loopMode `json:"scheduled"`
}

type serveEntry struct {
	Spec              string  `json:"spec"`
	Seed              uint64  `json:"seed"`
	Requests          int64   `json:"requests"`
	SimCycles         int64   `json:"sim_cycles"`
	WallNS            int64   `json:"wall_ns"`
	ThroughputPerKCyc float64 `json:"throughput_per_kcycle"`
}

type resilienceEntry struct {
	Spec           string  `json:"spec"`
	FaultSpec      string  `json:"fault_spec"`
	Seed           uint64  `json:"seed"`
	FaultSeed      uint64  `json:"fault_seed"`
	Arrived        int64   `json:"arrived"`
	Goodput        int64   `json:"goodput"`
	Timeouts       int64   `json:"timeouts"`
	Retries        int64   `json:"retries"`
	Shed           int64   `json:"shed"`
	SimCycles      int64   `json:"sim_cycles"`
	WallNS         int64   `json:"wall_ns"`
	GoodputPerKCyc float64 `json:"goodput_per_kcycle"`
}

type manifest struct {
	Schema          string           `json:"schema"`
	Loop            string           `json:"loop"`
	GoMaxProcs      int              `json:"go_max_procs"`
	Workloads       []entry          `json:"workloads"`
	CycleLoops      []loopEntry      `json:"cycle_loops"`
	Serve           *serveEntry      `json:"serve,omitempty"`
	ServeResilience *resilienceEntry `json:"serve_resilience,omitempty"`
}

func load(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func key(name string, procs, size int) string {
	return fmt.Sprintf("%s/p%d/s%d", name, procs, size)
}

// allocsRegressed applies the hard allocation gate: the current count may
// exceed the baseline by at most allocSlack fractionally plus a small
// absolute floor (so near-zero baselines don't make the gate hair-trigger).
// The floor was 0.05 when the pools still left per-transaction directory
// state and multicast originals to the GC; with those recycled, baselines
// sit at 0.02–0.44 and cross-GOMAXPROCS
// measurement drift is under 3%, so 0.02 absolute + 10% fractional holds
// comfortably while catching any single lost recycling path.
func allocsRegressed(baseline, current, allocSlack float64) bool {
	return current > baseline*(1+allocSlack)+0.02
}

func main() {
	baselinePath := flag.String("baseline", "bench_baseline_6.json", "committed baseline manifest")
	currentPath := flag.String("current", "BENCH_6.json", "freshly generated manifest")
	threshold := flag.Float64("threshold", 0.20, "max tolerated fractional refs/sec regression")
	allocSlack := flag.Float64("alloc-slack", 0.10, "max tolerated fractional allocs/ref growth (hard gate)")
	soft := flag.Bool("soft", false, "report throughput regressions but exit 0 (the alloc gate stays hard)")
	flag.Parse()

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if base.Schema != cur.Schema {
		fmt.Fprintf(os.Stderr, "benchguard: schema mismatch: baseline %q vs current %q\n",
			base.Schema, cur.Schema)
		os.Exit(2)
	}
	sameProcs := base.GoMaxProcs == cur.GoMaxProcs
	if !sameProcs {
		fmt.Printf("go_max_procs differs (baseline %d, current %d); wall-clock rows not compared, allocation gate still applies\n",
			base.GoMaxProcs, cur.GoMaxProcs)
	}

	baseRows := make(map[string]entry, len(base.Workloads))
	for _, e := range base.Workloads {
		baseRows[key(e.Name, e.Procs, e.Size)] = e
	}
	baseLoops := make(map[string]loopEntry, len(base.CycleLoops))
	for _, e := range base.CycleLoops {
		baseLoops[key(e.Name, e.Procs, e.Size)] = e
	}

	regressed := 0  // throughput (softenable)
	hardFailed := 0 // allocations (never softened)
	compared := 0
	for _, c := range cur.Workloads {
		k := key(c.Name, c.Procs, c.Size)
		b, ok := baseRows[k]
		if !ok {
			fmt.Printf("%-24s new row (no baseline), fast=%.0f refs/s\n", k, c.FastHits.RefsPerSec)
			continue
		}
		compared++
		// The simulation is deterministic: differing refs or cycles means
		// the workload itself changed, and both throughput and allocation
		// comparison would be apples to oranges.
		if c.Refs != b.Refs || c.SimCycles != b.SimCycles {
			fmt.Printf("%-24s workload changed (refs %d->%d cycles %d->%d); skipping checks\n",
				k, b.Refs, c.Refs, b.SimCycles, c.SimCycles)
			continue
		}
		status := "ok"
		if allocsRegressed(b.FastHits.AllocsPerRef, c.FastHits.AllocsPerRef, *allocSlack) {
			status = "ALLOCS REGRESSED"
			hardFailed++
		}
		if sameProcs {
			delta := c.FastHits.RefsPerSec/b.FastHits.RefsPerSec - 1
			if delta < -*threshold {
				status = "REGRESSED"
				regressed++
			}
			fmt.Printf("%-24s fast %9.0f -> %9.0f refs/s (%+6.1f%%)  allocs/ref %.3f -> %.3f  %s\n",
				k, b.FastHits.RefsPerSec, c.FastHits.RefsPerSec, 100*delta,
				b.FastHits.AllocsPerRef, c.FastHits.AllocsPerRef, status)
		} else {
			fmt.Printf("%-24s allocs/ref %.3f -> %.3f  %s\n",
				k, b.FastHits.AllocsPerRef, c.FastHits.AllocsPerRef, status)
		}
	}
	for _, c := range cur.CycleLoops {
		k := key(c.Name, c.Procs, c.Size)
		status := "ok"
		if b, ok := baseLoops[k]; ok && c.Refs == b.Refs && c.SimCycles == b.SimCycles {
			compared++
			if allocsRegressed(b.Scheduled.AllocsPerRef, c.Scheduled.AllocsPerRef, *allocSlack) {
				status = "ALLOCS REGRESSED"
				hardFailed++
			}
		}
		fmt.Printf("%-24s scheduled %6.0fms  allocs/ref %.3f  %s\n",
			k, float64(c.Scheduled.WallNS)/1e6, c.Scheduled.AllocsPerRef, status)
	}
	// Serving-layer saturation throughput: simulated-time req/kcycle, so
	// host speed does not enter — but the gate stays soft because the
	// metric tracks intentional scheduling/protocol changes, not only
	// regressions. Skipped unless both manifests carry the section for
	// the same scenario.
	if b, c := base.Serve, cur.Serve; b != nil && c != nil {
		if b.Spec != c.Spec || b.Seed != c.Seed {
			fmt.Printf("%-24s scenario changed; skipping serve check\n", "serve")
		} else {
			compared++
			status := "ok"
			delta := c.ThroughputPerKCyc/b.ThroughputPerKCyc - 1
			if delta < -*threshold {
				status = "REGRESSED"
				regressed++
			}
			fmt.Printf("%-24s serve %9.3f -> %9.3f req/kcycle (%+6.1f%%)  %s\n",
				"serve", b.ThroughputPerKCyc, c.ThroughputPerKCyc, 100*delta, status)
		}
	}
	// Serving-resilience goodput under the canonical chaos schedule:
	// SLA-met completions per kilocycle of simulated time, deterministic
	// across hosts. Soft gate like the serve row — the metric moves with
	// intentional scheduling and resilience-policy changes, not only
	// regressions — and skipped unless both manifests measured the exact
	// same scenario (spec, fault schedule and both seeds).
	if b, c := base.ServeResilience, cur.ServeResilience; b != nil && c != nil {
		if b.Spec != c.Spec || b.FaultSpec != c.FaultSpec || b.Seed != c.Seed || b.FaultSeed != c.FaultSeed {
			fmt.Printf("%-24s scenario changed; skipping resilience check\n", "serve_resilience")
		} else {
			compared++
			status := "ok"
			delta := c.GoodputPerKCyc/b.GoodputPerKCyc - 1
			if delta < -*threshold {
				status = "REGRESSED"
				regressed++
			}
			fmt.Printf("%-24s goodput %7.3f -> %7.3f req/kcycle (%+6.1f%%)  timeouts %d->%d retries %d->%d shed %d->%d  %s\n",
				"serve_resilience", b.GoodputPerKCyc, c.GoodputPerKCyc, 100*delta,
				b.Timeouts, c.Timeouts, b.Retries, c.Retries, b.Shed, c.Shed, status)
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no comparable rows between baseline and current")
		os.Exit(2)
	}
	if hardFailed > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d allocation hard-gate failures\n", hardFailed)
		os.Exit(1)
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d of %d rows regressed more than %.0f%%\n",
			regressed, compared, *threshold*100)
		if !*soft {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchguard: -soft set; not failing the build")
	}
}

// Command experiments regenerates the paper's evaluation: every table and
// figure of §4 plus the design-choice ablations, printing rows/series in
// the paper's shape next to the published values where the paper gives
// them.
//
// Usage:
//
//	experiments table1                 # contention-free latencies
//	experiments fig13                  # kernel speedups
//	experiments fig14                  # application speedups
//	experiments fig15-18               # NC + utilization + delay figures
//	experiments table3                 # false remote requests
//	experiments ablation               # SC locking on/off (§2.3's 2% claim)
//	experiments serve                  # serving-layer policy x load sweep
//	experiments resilience             # fault schedule x policy x discipline, baseline vs resilient
//	experiments all
//
// The -procs flag trims the speedup sweeps (default 1,2,4,8,16,32,64) and
// -scale scales problem sizes (1 = defaults from EXPERIMENTS.md).
//
// -workers N runs the independent (workload, P) simulation points of a
// sweep on N goroutines (0 = GOMAXPROCS, 1 = serial); output is
// byte-identical either way.
//
// -trace-dir DIR additionally captures a Chrome/Perfetto trace of every
// sweep point as DIR/<workload>-p<procs>.json (best effort: sweep
// families revisiting a coordinate overwrite the earlier file).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"numachine/internal/core"
	"numachine/internal/experiments"
	"numachine/internal/profile"
	"numachine/internal/workloads"
)

func main() {
	procsFlag := flag.String("procs", "1,2,4,8,16,32,64", "processor counts for speedup sweeps")
	scale := flag.Int("scale", 1, "problem size multiplier for speedup sweeps")
	workers := flag.Int("workers", 1, "goroutines for independent sweep points (0 = GOMAXPROCS)")
	serveBase := flag.String("serve-base", "duration=60000,tenants=4", "base -serve-spec for the serving sweep (coordinates appended per point)")
	serveSeed := flag.Uint64("serve-seed", 1, "load-generator seed for the serving sweep")
	resilBase := flag.String("resil-base", "open=4,duration=20000,procs=16,tenants=4,qcap=8,span=256,class=urgent:2:6:10:25:1000,class=interactive:3:8:20:25:4000,class=batch:1:48:60:50:0", "base -serve-spec for the resilience sweep")
	resilClauses := flag.String("resil-clauses", "kill=2,retries=2,backoff=200:1600,retry-budget=32,hedge=1500,breaker=180:2500,shed=on", "resilience clauses appended to the resilient arm of each point")
	faultSeed := flag.Uint64("fault-seed", 21, "fault-injector seed for the resilience sweep")
	traceDir := flag.String("trace-dir", "", "capture a Perfetto trace per sweep point into this directory")
	traceEvt := flag.Int("trace-events", 0, "per-component trace ring-buffer capacity (0 = default)")
	prof := profile.AddFlags()
	flag.Parse()
	what := flag.Arg(0)
	if what == "" {
		what = "all"
	}
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	var procs []int
	for _, f := range strings.Split(*procsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fatal(err)
		}
		procs = append(procs, v)
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
		experiments.SetTraceCapture(*traceDir, *traceEvt)
	}

	cfg := core.DefaultConfig()
	run := func(name string, fn func() error) {
		switch what {
		case "all", name:
			if err := fn(); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			fmt.Println()
		}
	}

	run("table1", func() error {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		experiments.PrintTable1(os.Stdout, rows)
		return nil
	})

	speedups := func(names []string, figure string) error {
		fmt.Printf("%s: parallel speedup (paper's Figure %s shape: see EXPERIMENTS.md)\n", figure, figure[3:])
		sizes := make(map[string]int, len(names))
		for _, name := range names {
			sizes[name] = experiments.SpeedupSizes()[name] * *scale
		}
		// Fan every (workload, P) point of the figure out at once rather
		// than curve by curve; the printed curves are identical.
		curves, err := experiments.SweepSpeedups(cfg, names, sizes, procs, *workers)
		if err != nil {
			return err
		}
		for _, c := range curves {
			experiments.PrintSpeedup(os.Stdout, c.Name, c.Points)
		}
		return nil
	}
	run("fig13", func() error { return speedups(workloads.Kernels(), "fig13") })
	run("fig14", func() error { return speedups(workloads.Applications(), "fig14") })

	run("fig15-18", func() error {
		runs, err := experiments.NCFigures(cfg, cfg.Geom.Procs(), *workers)
		if err != nil {
			return err
		}
		experiments.PrintFig15(os.Stdout, runs)
		fmt.Println()
		experiments.PrintFig16(os.Stdout, runs)
		fmt.Println()
		experiments.PrintFig17(os.Stdout, runs)
		fmt.Println()
		experiments.PrintFig18(os.Stdout, runs)
		return nil
	})

	run("table3", func() error {
		// False remote requests need NC ejections: measure both with the
		// prototype's 4 MB NC (paper setting: rates ~0) and with a small NC
		// that makes the recovery mechanism visible.
		small := cfg
		small.Params.NCLines = 512
		rows, err := experiments.Table3(small, small.Geom.Procs(), *workers)
		if err != nil {
			return err
		}
		fmt.Println("(512-line network cache, forcing ejections)")
		experiments.PrintTable3(os.Stdout, rows)
		big := cfg
		rows, err = experiments.Table3(big, big.Geom.Procs(), *workers)
		if err != nil {
			return err
		}
		fmt.Println("(prototype 4 MB network cache — the paper's setting)")
		experiments.PrintTable3(os.Stdout, rows)
		return nil
	})

	run("serve", func() error {
		fmt.Println("serving layer: placement policy x queue discipline x offered load")
		fmt.Printf("(base spec %q, seed %d)\n", *serveBase, *serveSeed)
		pts, err := experiments.SweepServe(cfg, *serveBase, *serveSeed,
			[]string{"static", "locality", "least-load"},
			[]string{"fifo", "edf"},
			[]int{2, 4}, *workers)
		if err != nil {
			return err
		}
		experiments.PrintServeSweep(os.Stdout, pts)
		return nil
	})

	run("resilience", func() error {
		fmt.Println("serving resilience: fault schedule x policy x discipline, baseline vs resilient arm")
		fmt.Printf("(base spec %q, resilience %q, serve seed %d, fault seed %d)\n",
			*resilBase, *resilClauses, *serveSeed, *faultSeed)
		pts, err := experiments.SweepResilience(cfg, *resilBase, *resilClauses, *serveSeed, *faultSeed,
			[]experiments.FaultSchedule{
				{Name: "none", Spec: ""},
				{Name: "degrade-freeze", Spec: "freeze-mem=4000:600,degrade-ring=6000:400,drop=0.02,timeout=1500"},
			},
			[]string{"locality", "least-load"},
			[]string{"edf"}, *workers)
		if err != nil {
			return err
		}
		experiments.PrintResilienceSweep(os.Stdout, pts)
		return nil
	})

	run("ablation", func() error {
		names := []string{"radix", "lu-contig", "ocean", "water-nsq"}
		res, err := experiments.AblationSCLocking(cfg, cfg.Geom.Procs(), names, *workers)
		if err != nil {
			return err
		}
		fmt.Println("sequential-consistency locking ablation (§2.3: paper reports ~2%)")
		fmt.Printf("%-14s %12s %12s %10s\n", "Workload", "SC on", "SC off", "Delta")
		for _, r := range res {
			fmt.Printf("%-14s %12d %12d %+9.2f%%\n", r.Workload, r.OnCycles, r.OffCycles, r.Delta())
		}
		return nil
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

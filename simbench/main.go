// Command simbench is the repository benchmark: it runs the simulator's
// four uses — a hit-bound SPLASH run, a saturated SPLASH run, a faulted
// serving scenario and a model-checker exploration — for a fixed time
// each, checks every run's output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) with their units. The last line
// of standard output is one JSON object with the result.
//
//	bash simbench/run.sh --workload splash-hits --seed 1 --seconds 10 --trace 0
//
// --workload all runs the four workloads back to back from one command;
// each sample runs in a fresh child process.
// --record <file> writes the fingerprints of the deterministic simulated
// output (one sample per workload and seed) instead of measuring.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"numachine/internal/core"
	"numachine/internal/experiments"
)

// expectedJSON holds the recorded fingerprints: workload name -> seed ->
// digest, where seed "*" covers every seed of an unseeded workload.
//
//go:embed expected.json
var expectedJSON []byte

type fingerprints map[string]map[string]string

// lookup returns the recorded fingerprint for w at seed, "" if none.
func (f fingerprints) lookup(w workload, seed uint64) string {
	if !w.seeded {
		return f[w.name]["*"]
	}
	return f[w.name][strconv.FormatUint(seed, 10)]
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed (serve-chaos load generator and fault seed)")
	seconds := fs.Int("seconds", 10, "measurement time per workload")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	record := fs.String("record", "", "write the fingerprints of the workloads to this file and exit")
	one := fs.Bool(sampleFlag, false, "measure one sample of one workload and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || *name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("usage: simbench --workload <name|all> [--seed n] [--seconds s] [--trace 0|1]")
	}
	var ws []workload
	if *name == "all" {
		ws = benchWorkloads()
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	// One P keeps the workload-CPU handshakes on one thread and the other
	// CPUs out of the measurement; results compare only at equal
	// GOMAXPROCS.
	runtime.GOMAXPROCS(1)
	traced := *trace == 1
	if *one {
		if len(ws) != 1 {
			return fmt.Errorf("--%s needs one workload", sampleFlag)
		}
		s, err := runOnce(ws[0], *seed, traced)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(s)
	}
	if *record != "" {
		return recordFingerprints(ws, *record)
	}
	var fp fingerprints
	if err := json.Unmarshal(expectedJSON, &fp); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}

	printHost(stdout)
	var results []*measurement
	for _, w := range ws {
		take, err := freshProcess(w, *seed)
		if err != nil {
			return err
		}
		ms, err := measure(w, *seed, fp.lookup(w, *seed), time.Duration(*seconds)*time.Second, traced, take)
		if err != nil {
			return err
		}
		printMeasurement(stdout, ms, traced)
		results = append(results, ms)
	}
	if err := printAccuracy(stdout); err != nil {
		return err
	}
	return printResult(stdout, results, traced)
}

// printHost records the host context results depend on.
func printHost(w io.Writer) {
	fmt.Fprintf(w, "host: %s %s/%s, nproc %d, GOMAXPROCS %d, cycle loop %s, core.DefaultConfig (64-CPU prototype)\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		core.DefaultConfig().LoopName())
	fmt.Fprintln(w, "every sample builds a fresh machine, so the modelled caches start empty in every run;")
	fmt.Fprintln(w, "compare host-time results only at equal GOMAXPROCS and nproc")
}

// printMeasurement prints one workload's metrics as a table: median,
// extremes and sample count.
func printMeasurement(w io.Writer, ms *measurement, traced bool) {
	fmt.Fprintf(w, "\n== %s: %s; seed %d; an op is one %s\n", ms.w.name, ms.w.desc, ms.seed, ms.w.opName)
	fmt.Fprintf(w, "samples %d, failed %d (%.1f%%)\n", len(ms.samples), ms.failed(),
		100*float64(ms.failed())/float64(len(ms.samples)))
	for i := range ms.samples {
		if err := ms.samples[i].Err; err != "" {
			fmt.Fprintf(w, "  sample %d failed: %s\n", i, err)
		}
	}
	row := func(m metric, st stat) {
		fmt.Fprintf(w, "  %-26s %-7s %14.6g %14.6g %14.6g %3d\n", m.name, m.unit, st.median, st.min, st.max, st.n)
	}
	fmt.Fprintf(w, "  %-26s %-7s %14s %14s %14s %3s\n", "end-to-end (untraced)", "unit", "median", "min", "max", "n")
	for _, m := range endToEnd {
		row(m, m.value(ms))
	}
	last := &ms.samples[len(ms.samples)-1].Out
	for _, r := range workloadRates {
		if r.applies(last) {
			row(r.metric, r.value(ms))
		}
	}
	fmt.Fprintf(w, "fingerprint %s (%s)\n", ms.samples[0].Digest, fingerprintNote(ms))
	if !traced {
		return
	}
	fmt.Fprintf(w, "  %-26s %-7s %14s %14s %14s %3s\n", "per-layer (traced)", "unit", "median", "min", "max", "n")
	for _, m := range perLayer() {
		row(m, m.value(ms))
	}
	spanNames := map[string]bool{}
	for i := range ms.samples {
		for k := range ms.samples[i].Spans {
			spanNames[k] = true
		}
	}
	fmt.Fprintln(w, "  public calls inside the phase spans:")
	for _, k := range sortedKeys(spanNames) {
		row(metric{name: k + "_s", unit: "s"}, ms.over(tracedOnly, func(s *sample) float64 { return s.Spans[k].Seconds() }))
	}
	wall := func(s *sample) float64 { return s.wall().Seconds() }
	on, off := ms.over(tracedOnly, wall), ms.over(untraced, wall)
	fmt.Fprintf(w, "tracing overhead: traced wall_s %.6g (n=%d) vs untraced %.6g (n=%d): %+.1f%%\n",
		on.median, on.n, off.median, off.n, 100*(on.median/off.median-1))
}

func fingerprintNote(ms *measurement) string {
	if ms.expected != "" {
		return "checked against the recorded fingerprint for this seed"
	}
	return "no recorded fingerprint for this seed; samples checked against each other"
}

// printAccuracy prints the model's error against the paper's Table 1.
func printAccuracy(w io.Writer) error {
	rows, err := experiments.Table1(core.DefaultConfig())
	if err != nil {
		return fmt.Errorf("table 1: %w", err)
	}
	var sum, worst float64
	var worstRow experiments.Table1Row
	for _, r := range rows {
		e := float64(r.Cycles-r.PaperCycle) / float64(r.PaperCycle)
		sum += math.Abs(e)
		if math.Abs(e) >= math.Abs(worst) {
			worst, worstRow = e, r
		}
	}
	fmt.Fprintf(w, "\nmodel accuracy (Table 1, contention-free latency vs the paper): mean |error| %.1f%% over %d rows; "+
		"worst %s, %s: %d vs %d cycles (%+.1f%%)\n",
		100*sum/float64(len(rows)), len(rows), worstRow.Access, worstRow.Scope,
		worstRow.Cycles, worstRow.PaperCycle, 100*worst)
	fmt.Fprintln(w, "the SPLASH runs have no in-repo reference numbers: their simulated results are unvalidated")
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult prints the result line: the end-to-end metrics, or the
// per-layer ones when traced. With several workloads each metric name is
// prefixed by its workload's.
func printResult(w io.Writer, results []*measurement, traced bool) error {
	out := jsonResult{Metrics: map[string]jsonMetric{}}
	metrics := endToEnd
	if traced {
		metrics = perLayer()
	}
	for _, ms := range results {
		out.Attempted += len(ms.samples)
		out.Failed += ms.failed()
		prefix := ""
		if len(results) > 1 {
			prefix = ms.w.name + "."
		}
		for _, m := range metrics {
			out.Metrics[prefix+m.name] = jsonMetric{m.value(ms).median, m.unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return nil
}

// recordedSeeds is how many seeds, from 0, have a recorded fingerprint for
// a seeded workload.
const recordedSeeds = 100

// recordFingerprints runs one sample of each workload (of each recorded
// seed of seeded ones) and writes the digests as expected.json.
func recordFingerprints(ws []workload, path string) error {
	fp := fingerprints{}
	for _, w := range ws {
		fp[w.name] = map[string]string{}
		keys := []string{"*"}
		if w.seeded {
			keys = keys[:0]
			for s := uint64(0); s < recordedSeeds; s++ {
				keys = append(keys, strconv.FormatUint(s, 10))
			}
		}
		for _, k := range keys {
			seed, _ := strconv.ParseUint(k, 10, 64) // "*" records at seed 0
			s, err := runOnce(w, seed, false)
			if err != nil {
				return err
			}
			if s.Err != "" {
				return fmt.Errorf("%s seed %s: %s", w.name, k, s.Err)
			}
			fp[w.name][k] = s.Digest
			fmt.Fprintf(os.Stderr, "%s seed %s: %s\n", w.name, k, s.Digest)
		}
	}
	b, err := json.MarshalIndent(fp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

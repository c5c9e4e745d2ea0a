package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// spans records host time around the benchmark's calls into each layer.
// A nil *spans runs the calls untimed, so untraced samples pay nothing.
type spans struct {
	dur map[string]time.Duration
}

func (sp *spans) do(name string, fn func()) {
	if sp == nil {
		fn()
		return
	}
	t := time.Now()
	fn()
	sp.dur[name] += time.Since(t)
}

// sample is one whole run of a workload: set-up, run, output check and
// report (the Results call), with the phase times, the heap activity, and the outcome. It
// travels from the sampling process to the benchmark process as JSON.
type sample struct {
	Setup, Run, Check, Report time.Duration
	Traced                    bool
	Spans                     map[string]time.Duration `json:",omitempty"` // traced samples only
	Profile                   map[string]int64         `json:",omitempty"` // CPU-profile samples by self-time bucket
	Out                       outcome
	Digest                    string
	Err                       string `json:",omitempty"` // a failed check or fingerprint mismatch

	AllocBytes    uint64 // bytes allocated by the whole sample
	RunMallocs    uint64 // heap allocations during the run phase
	Mallocs       uint64 // heap allocations by the whole sample
	HeapBytes     uint64 // live heap after the run, after a forced GC
	RetainedBytes uint64 // live heap once the instance is dropped
	Goroutines    int    // goroutines left once the instance is dropped
	GCCycles      uint32
	GCPause       time.Duration
}

func (s *sample) wall() time.Duration { return s.Setup + s.Run + s.Check + s.Report }

// runPhaseSeconds is the run phase in seconds, floored at a nanosecond so
// rates stay finite.
func (s *sample) runPhaseSeconds() float64 { return max(s.Run.Seconds(), 1e-9) }

// digest is the fingerprint of a run's deterministic output.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// runOnce measures one sample in this process, which should be fresh:
// the sample's set-up then pays for a cold heap, as a simulator user
// does, and nothing an earlier sample left behind slows it. Every sample
// builds a fresh machine, so the modelled caches start empty. A traced
// sample also records spans and folds its CPU profile by layer.
func runOnce(w workload, seed uint64, traced bool) (sample, error) {
	s := sample{Traced: traced}
	var sp *spans
	if traced {
		sp = &spans{dur: map[string]time.Duration{}}
	}
	var m0, m1, m2, m3 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var cpu bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return s, fmt.Errorf("cpu profile: %w", err)
		}
	}

	t0 := time.Now()
	inst, err := w.start(seed, sp)
	s.Setup = time.Since(t0)
	if err != nil {
		pprof.StopCPUProfile()
		return s, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	runtime.ReadMemStats(&m1)
	t1 := time.Now()
	inst.run(sp)
	s.Run = time.Since(t1)
	runtime.ReadMemStats(&m2)
	t2 := time.Now()
	checkErr := inst.check()
	s.Check = time.Since(t2)
	t3 := time.Now()
	inst.results(sp)
	s.Report = time.Since(t3)
	runtime.ReadMemStats(&m3)
	if traced {
		pprof.StopCPUProfile()
	}

	// From here on the work is the benchmark's own and untimed.
	s.Out, err = inst.outcome()
	if err != nil {
		return s, fmt.Errorf("%s: outcome: %w", w.name, err)
	}
	s.Digest = digest(s.Out.Output)
	if checkErr != nil {
		s.Err = checkErr.Error()
	}
	if traced {
		if s.Profile, err = foldProfile(cpu.Bytes()); err != nil {
			return s, err
		}
		s.Spans = sp.dur
	}
	var live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(inst) // the instance is dead from here on
	var left runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&left)

	s.AllocBytes = m3.TotalAlloc - m0.TotalAlloc
	s.Mallocs = m3.Mallocs - m0.Mallocs
	s.RunMallocs = m2.Mallocs - m1.Mallocs
	s.HeapBytes = live.HeapAlloc - min(live.HeapAlloc, m0.HeapAlloc)
	s.RetainedBytes = left.HeapAlloc - min(left.HeapAlloc, m0.HeapAlloc)
	s.Goroutines = runtime.NumGoroutine() - 1
	s.GCCycles = m3.NumGC - m0.NumGC
	s.GCPause = time.Duration(m3.PauseTotalNs - m0.PauseTotalNs)
	return s, nil
}

// sampler measures one sample, traced or not.
type sampler func(traced bool) (sample, error)

// inProcess measures samples in this process.
func inProcess(w workload, seed uint64) sampler {
	return func(traced bool) (sample, error) { return runOnce(w, seed, traced) }
}

// sampleFlag makes the benchmark measure one sample and print it as JSON.
const sampleFlag = "sample"

// freshProcess measures every sample in a new process running this
// program with --sample, so no sample inherits heap, goroutines or
// collector state from an earlier one.
func freshProcess(w workload, seed uint64) (sampler, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return func(traced bool) (sample, error) {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "--"+sampleFlag, "--workload", w.name,
			"--seed", strconv.FormatUint(seed, 10), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return sample{}, fmt.Errorf("%s sample: %w", w.name, err)
		}
		var s sample
		if err := json.Unmarshal(out, &s); err != nil {
			return sample{}, fmt.Errorf("%s sample: %w", w.name, err)
		}
		return s, nil
	}, nil
}

// measurement is all samples of one workload in one benchmark run.
type measurement struct {
	w        workload
	seed     uint64
	expected string // recorded fingerprint for (workload, seed); "" if none
	samples  []sample
	prof     *selfTime // merged CPU profile of the traced samples
}

// measure takes samples of w back to back for the given duration (always
// at least one, and with tracing at least one traced and one untraced).
// Traced runs alternate untraced and traced samples, so the tracing
// overhead is measured under the same conditions. A sample fails when
// its output check fails or its fingerprint differs from the recorded
// one; with no recorded fingerprint for the seed, every sample must match
// the first.
func measure(w workload, seed uint64, expected string, d time.Duration, traced bool, take sampler) (*measurement, error) {
	ms := &measurement{w: w, seed: seed, expected: expected, prof: newSelfTime()}
	minSamples := 1
	if traced {
		minSamples = 2
	}
	start := time.Now()
	for i := 0; i < minSamples || time.Since(start) < d; i++ {
		s, err := take(traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		want := expected
		if want == "" && len(ms.samples) > 0 {
			want = ms.samples[0].Digest
		}
		if s.Err == "" && want != "" && s.Digest != want {
			s.Err = fmt.Sprintf("fingerprint %s, want %s", s.Digest, want)
		}
		ms.prof.merge(s.Profile)
		ms.samples = append(ms.samples, s)
	}
	return ms, nil
}

// failed counts the failed samples.
func (ms *measurement) failed() int { return ms.count(func(s *sample) bool { return s.Err != "" }) }

// stat is the median, extremes and count of one metric over samples.
type stat struct {
	median, min, max float64
	n                int
}

// over summarizes f over the samples selected by keep.
func (ms *measurement) over(keep func(*sample) bool, f func(*sample) float64) stat {
	var v []float64
	for i := range ms.samples {
		if keep(&ms.samples[i]) {
			v = append(v, f(&ms.samples[i]))
		}
	}
	return summarize(v)
}

func summarize(v []float64) stat {
	if len(v) == 0 {
		return stat{}
	}
	sort.Float64s(v)
	med := v[len(v)/2]
	if len(v)%2 == 0 {
		med = (v[len(v)/2-1] + v[len(v)/2]) / 2
	}
	return stat{median: med, min: v[0], max: v[len(v)-1], n: len(v)}
}

// count is the number of samples keep selects.
func (ms *measurement) count(keep func(*sample) bool) int {
	n := 0
	for i := range ms.samples {
		if keep(&ms.samples[i]) {
			n++
		}
	}
	return n
}

func untraced(s *sample) bool   { return !s.Traced }
func tracedOnly(s *sample) bool { return s.Traced }

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

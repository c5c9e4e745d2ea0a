package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"numachine/internal/mcheck"
)

// tinyWorkloads are the benchmark's four workloads shrunk to smoke-test
// size.
func tinyWorkloads() []workload {
	spec := mcheck.DefaultSpec()
	spec.Delays = []int64{0}
	return []workload{
		splash("tiny-lu", "lu-contig", 2, 48),
		splash("tiny-ocean", "ocean", 4, 16),
		serveChaos("tiny-serve", 40),
		mcheckFaults("tiny-mcheck", spec),
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// resultLine prints ms's result and decodes its last line.
func resultLine(t *testing.T, ms *measurement, traced bool) jsonResult {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, []*measurement{ms}, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSmoke runs every workload at tiny size, traced, and checks that
// each metric BENCHMARK.json declares is printed with its unit and that
// no sample fails.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range tinyWorkloads() {
		ms, err := measure(w, 1, "", 0, true, inProcess(w, 1))
		if err != nil {
			t.Fatal(err)
		}
		var report bytes.Buffer
		printMeasurement(&report, ms, true)
		for _, tc := range []struct {
			traced bool
			want   []struct{ Name, Unit string }
		}{{false, f.EndToEnd}, {true, f.PerLayer}} {
			r := resultLine(t, ms, tc.traced)
			if !r.Correct || r.Failed != 0 || r.Attempted != 2 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.name, r.Correct, r.Attempted, r.Failed, report.String())
			}
			if len(r.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, tc.traced, len(r.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, tc.traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(report.String(), m.Name) {
					t.Errorf("%s: report does not print %s", w.name, m.Name)
				}
			}
		}
	}
}

// TestBenchmarkWorkloads checks that BENCHMARK.json names exactly the
// benchmark's workloads.
func TestBenchmarkWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	ws := benchWorkloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, f.Workloads[i].Name, w.name)
		}
	}
}

// TestFingerprintMismatchFails corrupts the expected fingerprint: every
// sample must count as failed.
func TestFingerprintMismatchFails(t *testing.T) {
	w := tinyWorkloads()[0]
	ms, err := measure(w, 1, "0000000000000000", 0, false, inProcess(w, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := resultLine(t, ms, false)
	if r.Correct || r.Attempted != 1 || r.Failed != 1 {
		t.Fatalf("corrupted fingerprint: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
}

// failingCheck wraps an instance whose output check fails.
type failingCheck struct{ instance }

func (failingCheck) check() error { return errors.New("forced check failure") }

// TestFailingCheckFails makes the output check fail: the sample must
// count as failed even though its fingerprint matches.
func TestFailingCheckFails(t *testing.T) {
	w := tinyWorkloads()[0]
	ref, err := measure(w, 1, "", 0, false, inProcess(w, 1))
	if err != nil {
		t.Fatal(err)
	}
	start := w.start
	w.start = func(seed uint64, sp *spans) (instance, error) {
		inst, err := start(seed, sp)
		return failingCheck{inst}, err
	}
	ms, err := measure(w, 1, ref.samples[0].Digest, 0, false, inProcess(w, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := resultLine(t, ms, false)
	if r.Correct || r.Attempted != 1 || r.Failed != 1 {
		t.Fatalf("failing check: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
}

// TestRecordedFingerprints checks that every benchmark workload has a
// recorded fingerprint for the default seed.
func TestRecordedFingerprints(t *testing.T) {
	var fp fingerprints
	if err := json.Unmarshal(expectedJSON, &fp); err != nil {
		t.Fatal(err)
	}
	for _, w := range benchWorkloads() {
		if fp.lookup(w, 1) == "" {
			t.Errorf("%s: no recorded fingerprint for seed 1", w.name)
		}
	}
}

// TestUsage checks that malformed invocations fail without a result.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"--workload", "nosuch"},
		{"--workload", "splash-hits", "--trace", "2"},
		{"--workload", "splash-hits", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || out.Len() != 0 {
			t.Errorf("run(%q): err=%v, printed %q", args, err, out.String())
		}
	}
}

// topOutput is go tool pprof -top output in the shape foldProfile reads.
const topOutput = `File: simbench
Type: samples
Time: 2026-01-01 00:00:00 UTC
Duration: 1.20s, Total samples = 110 
Showing nodes accounting for 110, 100% of 110 total
      flat  flat%   sum%        cum   cum%
        60 54.55% 54.55%         70 63.64%  numachine/internal/core.(*Machine).step
        20 18.18% 72.73%         20 18.18%  numachine/internal/cache.(*Cache).set (inline)
        15 13.64% 86.36%         15 13.64%  runtime.mallocgc
        10  9.09% 95.45%         10  9.09%  runtime.chanrecv
         5  4.55%   100%          5  4.55%  sort.Sort
`

// TestParseTop checks the fold of pprof's -top rows into buckets, and
// that rows that do not add up to the total are refused.
func TestParseTop(t *testing.T) {
	got, err := parseTop([]byte(topOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"core.self_pct": 60, "cache.self_pct": 20,
		"runtime.gc_pct": 15, "runtime.sched_pct": 10, "other.self_pct": 5}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
	for b, n := range want {
		if got[b] != n {
			t.Errorf("%s = %d, want %d", b, got[b], n)
		}
	}
	short := strings.Replace(topOutput, "Total samples = 110", "Total samples = 111", 1)
	if _, err := parseTop([]byte(short)); err == nil {
		t.Error("rows short of the total were accepted")
	}
}

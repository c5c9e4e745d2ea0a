// Integration-level equivalence: real SPLASH-style workloads must produce
// bit-identical results under the naive tick-everything loop and the
// quiescence-scheduled loop. The synthetic scenarios in
// internal/core/equivalence_test.go cover the protocol corners; this file
// covers the actual workload generators (which core's own tests cannot
// import without a cycle).
package numachine_test

import (
	"reflect"
	"testing"

	"numachine/internal/core"
	"numachine/internal/workloads"
)

func runWorkload(t *testing.T, name string, procs, size int, loop string) (int64, core.Results) {
	return runWorkloadFast(t, name, procs, size, loop, true)
}

func runWorkloadFast(t *testing.T, name string, procs, size int, loop string, fastHits bool) (int64, core.Results) {
	t.Helper()
	cfg := benchConfig()
	cfg.FastHits = fastHits
	cfg.NaiveLoop = loop == "naive"
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workloads.Build(name, m, procs, size)
	if err != nil {
		t.Fatal(err)
	}
	m.Load(inst.Progs)
	cycles := m.Run()
	if err := inst.Check(); err != nil {
		t.Fatalf("%s (%s): %v", name, loop, err)
	}
	return cycles, m.Results()
}

// TestWorkloadFastHitsEquivalence runs the real workload generators with
// the front-end hit fast path off (baseline, naive loop) and on (both
// loops): cycle counts and the full Results snapshot must be
// bit-identical. Cross-loop identity at a fixed FastHits setting is
// covered by TestWorkloadLoopEquivalence, so this axis closes the
// on/off × loop matrix for real reference streams.
func TestWorkloadFastHitsEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		procs, size int
	}{
		{"radix", 16, 1024},
		{"lu-contig", 16, 32},
		{"water-nsq", 16, 32},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			offCycles, offRes := runWorkloadFast(t, c.name, c.procs, c.size, "naive", false)
			for _, loop := range []string{"naive", "scheduler"} {
				cycles, res := runWorkloadFast(t, c.name, c.procs, c.size, loop, true)
				if offCycles != cycles {
					t.Errorf("cycle count: off=%d fast/%s=%d", offCycles, loop, cycles)
				}
				if !reflect.DeepEqual(offRes, res) {
					t.Errorf("results diverge:\noff:     %+v\nfast/%s: %+v", offRes, loop, res)
				}
			}
		})
	}
}

func TestWorkloadLoopEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		procs, size int
	}{
		{"radix", 16, 1024},
		{"fft", 16, 1024},
		{"ocean", 16, 32},
		{"water-nsq", 16, 32},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nCycles, nRes := runWorkload(t, c.name, c.procs, c.size, "naive")
			cycles, res := runWorkload(t, c.name, c.procs, c.size, "scheduler")
			if nCycles != cycles {
				t.Errorf("cycle count: naive=%d scheduler=%d", nCycles, cycles)
			}
			if !reflect.DeepEqual(nRes, res) {
				t.Errorf("results diverge:\nnaive: %+v\nscheduler: %+v", nRes, res)
			}
		})
	}
}

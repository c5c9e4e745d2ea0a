package core

import (
	"testing"

	"numachine/internal/proc"
	"numachine/internal/topo"
)

// TestNAKContentionBackoff hammers one line with atomic updates from
// every processor so the home directory lock NAKs most requests, with
// the adaptive backoff and both forward-progress monitors armed. The
// run must complete (no starvation or retry-budget abort), the counter
// must show every update applied exactly once, retries must be bounded
// by the budget, and — because the backoff jitter is drawn from seeded
// per-requester streams — both cycle loops must stay bit-identical.
func TestNAKContentionBackoff(t *testing.T) {
	const perProc = 25
	build := func(loop string) (*Machine, int64, uint64) {
		cfg := DefaultConfig()
		cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 3, Rings: 1}
		cfg.Params.L2Lines = 64
		cfg.Params.DeadlockCycles = 2_000_000
		cfg.Params.RetryBackoff = true
		cfg.Params.RetryJitterSeed = 7
		cfg.Params.MaxRetries = 500
		cfg.NaiveLoop = loop == "naive"
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hot := m.AllocLines(1)
		var final uint64
		progs := make([]proc.Program, m.Geometry().Procs())
		for i := range progs {
			progs[i] = func(c *proc.Ctx) {
				for k := 0; k < perProc; k++ {
					c.FetchAdd(hot, 1)
				}
				c.Barrier()
				if c.ID == 0 {
					final = c.Read(hot)
				}
			}
		}
		m.Load(progs)
		cycles := m.Run()
		if err := m.CheckCoherence(); err != nil {
			t.Fatalf("%s: coherence: %v", loop, err)
		}
		return m, cycles, final
	}

	mn, cyclesN, finalN := build("naive")
	want := uint64(mn.Geometry().Procs() * perProc)
	if finalN != want {
		t.Errorf("hot counter = %d, want %d (lost or doubled updates)", finalN, want)
	}
	r := mn.Results()
	if r.Proc.NAKRetries == 0 {
		t.Error("contention scenario produced no NAK retries; test is vacuous")
	}
	if r.Proc.RetryStreaks == 0 || r.Proc.RetryStreakMax == 0 {
		t.Errorf("retry histogram empty despite %d NAK retries: %+v", r.Proc.NAKRetries, r.Proc)
	}
	if max := r.Proc.RetryStreakMax; max > 500 {
		t.Errorf("worst NAK streak %d exceeds the retry budget", max)
	}
	if n := r.Proc.RetryLatency.Count(); n != r.Proc.RetryStreaks {
		t.Errorf("retry latency histogram holds %d samples, want %d retried references", n, r.Proc.RetryStreaks)
	}

	for _, loop := range equivLoops[1:] {
		m, cycles, final := build(loop)
		if final != finalN {
			t.Errorf("%s: hot counter %d, naive %d", loop, final, finalN)
		}
		compareRuns(t, "naive", loop, mn, m, cyclesN, cycles)
	}
}

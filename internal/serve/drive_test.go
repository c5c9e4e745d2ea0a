package serve

import (
	"testing"

	"numachine/internal/core"
	"numachine/internal/proc"
)

// driveTrace runs one scenario recording the cycle of every dispatcher
// drive.
func driveTrace(t *testing.T, loop string) []int64 {
	t.Helper()
	sp, err := ParseSpec(serveSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(testConfig(loop, true))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(m, sp, 42)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]proc.Program, sp.Procs)
	for w := range progs {
		progs[w] = ctl.worker(w)
	}
	m.Load(progs)
	var drives []int64
	m.SetDriver(sp.Quantum, func(mm *core.Machine) {
		drives = append(drives, mm.Now())
		ctl.drive(mm)
	})
	m.Run()
	return drives
}

// TestDriveCyclesLoopInvariant pins the SetDriver contract directly: the
// dispatcher fires at exactly the same cycles under every loop. This is
// sharper than comparing end-of-run reports — it catches a quiescence
// fast-forward jumping over a due drive (the clamp's >= boundary: a jump
// computed after m.now has already advanced onto driveAt must be
// suppressed, not taken) even when the perturbed schedule happens to
// produce similar results.
func TestDriveCyclesLoopInvariant(t *testing.T) {
	ref := driveTrace(t, "naive")
	if len(ref) < 10 {
		t.Fatalf("scenario produced only %d drives; test is vacuous", len(ref))
	}
	got := driveTrace(t, "scheduled")
	if len(got) != len(ref) {
		t.Errorf("scheduled: %d drives, naive %d", len(got), len(ref))
	}
	for i := 0; i < len(ref) && i < len(got); i++ {
		if ref[i] != got[i] {
			t.Fatalf("drive %d: naive at cycle %d, scheduled at %d", i, ref[i], got[i])
		}
	}
	// Drives land on the quantum grid: the machine walks or jumps onto
	// every due drive cycle, never past it.
	sp, _ := ParseSpec(serveSpecs[0])
	for i := 1; i < len(ref); i++ {
		if (ref[i]-ref[0])%sp.Quantum != 0 {
			t.Fatalf("drive %d at cycle %d is off the %d-cycle quantum grid", i, ref[i], sp.Quantum)
		}
	}
}

package serve

import "testing"

// TestServeSoak is the serving-layer robustness pass for CI's race jobs:
// a longer closed-loop scenario under the naive loop, with the fast path
// on and off, cross-checked request-for-request against the scheduled
// loop. Skipped under -short; the equivalence suite already covers the
// small scenarios there.
func TestServeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: long closed-loop run")
	}
	const spec = "closed=12,requests=400,procs=8,tenants=4,span=512,depth=3," +
		"discipline=edf,policy=locality," +
		"class=interactive:4:8:20:25:4000,class=batch:1:64:80:50:0"
	ref, refRes := runServe(t, testConfig("scheduled", true), spec, 11)
	s := refRes.Serve
	if s.Total.Arrived != 400 || s.Total.Completed != 400 || s.Total.Dropped != 0 {
		t.Fatalf("closed loop leaked requests: arrived=%d completed=%d dropped=%d",
			s.Total.Arrived, s.Total.Completed, s.Total.Dropped)
	}
	for _, fast := range []bool{true, false} {
		report, _ := runServe(t, testConfig("naive", fast), spec, 11)
		if report != ref {
			t.Errorf("naive/fast=%v diverges from scheduled:\n--- scheduled\n%s--- naive\n%s",
				fast, ref, report)
		}
	}
}

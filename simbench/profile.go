package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// selfTime accumulates CPU-profile samples by the layer of their leaf
// frame: a simulator package, a runtime bucket, or other.
type selfTime struct {
	samples map[string]int64
	total   int64
}

func newSelfTime() *selfTime { return &selfTime{samples: map[string]int64{}} }

// simPackages are the simulator's layers that get a self-time share.
var simPackages = []string{
	"core", "sim", "proc", "cache", "bus", "memory", "netcache", "ring",
	"msg", "topo", "fault", "serve", "mcheck", "snap", "workloads",
}

// Runtime buckets, matched on the function name after the package.
var (
	schedFuncs = []string{"chan", "park", "futex", "schedule", "findRunnable", "ready",
		"gogo", "mcall", "runq", "wakep", "startm", "stopm", "notesleep", "notewakeup",
		"semacquire", "semrelease", "selectgo", "execute", "casgstatus", "goexit",
		"newproc", "gfget", "gfput", "osyield", "usleep", "lock2", "unlock2", "stealWork",
		"handoff", "acquirep", "releasep", "Gosched", "goschedImpl", "netpoll", "asyncPreempt"}
	gcFuncs = []string{"malloc", "newobject", "newarray", "makeslice", "makemap", "growslice",
		"gcBgMarkWorker", "gcDrain", "gcMark", "markroot", "scanobject", "scanblock",
		"scanstack", "scanframe", "greyobject", "findObject", "heapBits", "sweep", "Sweep",
		"memclr", "mallocgc", "nextFree", "refill", "mcentral", "mheap", "mspan", "mSpan",
		"wbBuf", "gcWriteBarrier", "bulkBarrier", "typePointers", "gcAssist", "gcStart",
		"pageAlloc", "sysAlloc", "sysUsed", "spanOf", "SpanClass", "spanSet", "gcWork",
		"heapSetType", "Assist"}
)

// layerOf maps a fully qualified function name to its self-time bucket.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "numachine/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, p := range simPackages {
			if p == pkg {
				return p + ".self_pct"
			}
		}
		return "other.self_pct"
	}
	var name string
	switch {
	case strings.HasPrefix(fn, "runtime."):
		name = strings.TrimPrefix(fn, "runtime.")
	case strings.HasPrefix(fn, "internal/runtime/"):
		_, name, _ = strings.Cut(fn, ".")
	default:
		return "other.self_pct"
	}
	for _, s := range gcFuncs {
		if strings.Contains(name, s) {
			return "runtime.gc_pct"
		}
	}
	for _, s := range schedFuncs {
		if strings.Contains(name, s) {
			return "runtime.sched_pct"
		}
	}
	if strings.HasPrefix(fn, "internal/runtime/syscall.") {
		return "runtime.sched_pct" // futex system calls
	}
	return "runtime.other_pct"
}

// selfBuckets are every bucket layerOf can return, in report order.
func selfBuckets() []string {
	var out []string
	for _, p := range simPackages {
		out = append(out, p+".self_pct")
	}
	return append(out, "runtime.sched_pct", "runtime.gc_pct", "runtime.other_pct", "other.self_pct")
}

// merge adds samples counted by bucket.
func (st *selfTime) merge(samples map[string]int64) {
	for b, n := range samples {
		st.samples[b] += n
		st.total += n
	}
}

// share returns bucket's share of all samples, in percent.
func (st *selfTime) share(bucket string) float64 {
	if st.total == 0 {
		return 0
	}
	return 100 * float64(st.samples[bucket]) / float64(st.total)
}

// foldProfile folds one CPU profile, as runtime/pprof writes it, into
// sample counts by self-time bucket. The go command's pprof does the
// decoding: -top lists every function's flat sample count, with an
// inlined frame counted in its own function, and layerOf buckets each
// function by its package. The benchmark is built by the go command, so
// the same toolchain's pprof is at hand.
func foldProfile(prof []byte) (map[string]int64, error) {
	if len(prof) == 0 {
		return nil, nil
	}
	f, err := os.CreateTemp("", "simbench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(prof)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-sample_index=samples",
		"-nodecount=0", "-nodefraction=0", f.Name())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTop(out)
}

// parseTop reads go tool pprof -top output, whose rows after the header
// are "flat flat% sum% cum cum% function [(inline)]", and sums the flat
// counts by bucket. The rows must add up to the reported total.
func parseTop(top []byte) (map[string]int64, error) {
	buckets := map[string]int64{}
	var total, sum int64 = -1, 0
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "Duration: "); ok {
			_, n, _ := strings.Cut(rest, "Total samples = ")
			v, err := strconv.ParseInt(strings.TrimSpace(n), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof total %q: %w", line, err)
			}
			total = v
			continue
		}
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof row %q", line)
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		buckets[layerOf(f[5])] += n
		sum += n
	}
	if sum != total {
		return nil, fmt.Errorf("pprof rows add up to %d samples, total %d", sum, total)
	}
	return buckets, nil
}

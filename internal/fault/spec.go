// Package fault is the deterministic fault-injection subsystem. An
// Injector, built from a seed and a parsed Spec, hands each timed
// component a *Comp holding that component's private fault state:
// independent PRNG streams for packet drop and duplication decisions and
// a lazily generated schedule of freeze/degrade windows. Every decision
// is a pure function of (seed, component name, event sequence) or of the
// simulated cycle alone, so a faulted run is bit-identical across the
// naive and scheduled cycle loops, and the zero-fault configuration (nil
// Injector, nil Comps) leaves every hook inert.
//
// Concurrency contract: Injector and Comp state is unsynchronized; the
// machine's single-threaded cycle loop makes every draw.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Window describes a recurring unavailability pattern: the component is
// down for Dur cycles, then up for a randomized gap drawn uniformly from
// [Gap/2, 3*Gap/2) cycles, repeating. Dur == 0 means no windows.
type Window struct {
	Gap int64 // mean cycles between windows
	Dur int64 // cycles per window
}

func (w Window) active() bool { return w.Dur > 0 }

// Spec is the parsed fault schedule. The zero-value-equivalent spec
// (Zero() == true) injects nothing; core only builds an Injector for a
// non-zero spec so that fault-free runs take no new code paths.
type Spec struct {
	// Drop is the probability that a droppable request packet is lost at
	// a ring-injection or inter-ring switch point. Dup is the probability
	// that a duplication-safe sinkable network message is delivered
	// twice. See msg.Type.Droppable and msg.Type.DupSafe for which types
	// are eligible and why.
	Drop float64
	Dup  float64

	// FreezeMem and FreezeNC stall every memory directory / network
	// cache for recurring windows, stretching transient-lock hold times.
	// DegradeRing halts ring-clock edges of every ring in windows.
	FreezeMem   Window
	FreezeNC    Window
	DegradeRing Window

	// WedgeMemStation >= 0 permanently freezes that station's memory
	// from cycle WedgeMemCycle on: a guaranteed forward-progress failure
	// used to exercise the stuck-transaction report.
	WedgeMemStation int
	WedgeMemCycle   int64

	// Timeout overrides the network-cache fetch re-issue timeout
	// (cycles); 0 selects DefaultTimeout.
	Timeout int64
}

// DefaultTimeout is the NC fetch re-issue timeout used when the spec
// does not set one. It must comfortably exceed a worst-case request/
// response round trip across both ring levels so that timeouts fire only
// for genuinely lost packets (spurious re-issues are recoverable but
// waste bandwidth).
const DefaultTimeout = 4000

// Zero reports whether the spec injects nothing.
func (s Spec) Zero() bool {
	return s.Drop == 0 && s.Dup == 0 &&
		!s.FreezeMem.active() && !s.FreezeNC.active() && !s.DegradeRing.active() &&
		s.WedgeMemStation < 0 && s.Timeout == 0
}

// ParseSpec parses the -fault-spec flag syntax: a comma-separated list
// of key=value clauses.
//
//	drop=P            drop probability, P in [0,1]
//	dup=P             duplication probability, P in [0,1]
//	freeze-mem=G:D    freeze every memory for D cycles about every G cycles
//	freeze-nc=G:D     likewise for every network cache
//	degrade-ring=G:D  halt ring-clock edges for D cycles about every G cycles
//	wedge-mem=S:C     permanently freeze station S's memory from cycle C
//	timeout=N         NC fetch re-issue timeout in cycles
//
// The empty string parses to the zero spec.
func ParseSpec(s string) (Spec, error) {
	sp := Spec{WedgeMemStation: -1}
	if s == "" {
		return sp, nil
	}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return Spec{WedgeMemStation: -1}, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		var err error
		switch key {
		case "drop":
			sp.Drop, err = parseProb(val)
		case "dup":
			sp.Dup, err = parseProb(val)
		case "freeze-mem":
			sp.FreezeMem, err = parseWindow(val)
		case "freeze-nc":
			sp.FreezeNC, err = parseWindow(val)
		case "degrade-ring":
			sp.DegradeRing, err = parseWindow(val)
		case "wedge-mem":
			sp.WedgeMemStation, sp.WedgeMemCycle, err = parseWedge(val)
		case "timeout":
			sp.Timeout, err = parsePositive(val)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return Spec{WedgeMemStation: -1}, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
	}
	return sp, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p != p || p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

func parseWindow(s string) (Window, error) {
	g, d, ok := strings.Cut(s, ":")
	if !ok {
		return Window{}, fmt.Errorf("window %q is not GAP:DUR", s)
	}
	gap, err := parsePositive(g)
	if err != nil {
		return Window{}, err
	}
	dur, err := parsePositive(d)
	if err != nil {
		return Window{}, err
	}
	return Window{Gap: gap, Dur: dur}, nil
}

func parseWedge(s string) (int, int64, error) {
	st, cy, ok := strings.Cut(s, ":")
	if !ok {
		return -1, 0, fmt.Errorf("wedge %q is not STATION:CYCLE", s)
	}
	station, err := strconv.Atoi(st)
	if err != nil {
		return -1, 0, err
	}
	if station < 0 {
		return -1, 0, fmt.Errorf("station %d negative", station)
	}
	cycle, err := strconv.ParseInt(cy, 10, 64)
	if err != nil {
		return -1, 0, err
	}
	if cycle < 0 {
		return -1, 0, fmt.Errorf("cycle %d negative", cycle)
	}
	return station, cycle, nil
}

func parsePositive(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("value %d not positive", n)
	}
	return n, nil
}

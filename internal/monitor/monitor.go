// Package monitor reproduces NUMAchine's non-intrusive performance
// monitoring hardware (§3.3): dedicated counters for critical resources,
// SRAM-based histogram tables that categorize events (such as the cache
// coherence histogram of transaction type × line state), utilization
// trackers for buses and ring links, and the per-processor phase identifier
// that lets measurements be correlated with program phases.
//
// The monitoring is "non-intrusive" in the simulator too: components feed
// the monitor, and nothing in the timing model depends on it.
//
// Concurrency contract: the simulator is single-threaded — one goroutine
// runs the cycle loop and ticks every component — so counters,
// utilization trackers, samplers, tables and the PhaseIDs register file
// are unsynchronized.
package monitor

import (
	"fmt"
	"strings"
)

// Counter is a simple event counter, the model of the dedicated hardware
// counters (total transactions, invalidations sent, ...).
type Counter struct{ n int64 }

// Inc adds one event.
func (c *Counter) Inc() { c.n++ }

// Add adds n events.
func (c *Counter) Add(n int64) { c.n += n }

// Value returns the accumulated count.
func (c *Counter) Value() int64 { return c.n }

// Utilization tracks the fraction of cycles a resource was busy, the metric
// reported for buses and rings in Figure 17.
type Utilization struct{ busy, total int64 }

// Tick records one cycle of the resource being busy or idle.
func (u *Utilization) Tick(busy bool) {
	u.total++
	if busy {
		u.busy++
	}
}

// AddBusy records several busy cycles at once (e.g. a burst transfer).
func (u *Utilization) AddBusy(n int64) { u.busy += n }

// AddTotal advances the observation window without marking busy cycles.
func (u *Utilization) AddTotal(n int64) { u.total += n }

// Value returns the utilization in [0, 1]; 0 when nothing was observed.
func (u *Utilization) Value() float64 {
	if u.total == 0 {
		return 0
	}
	return float64(u.busy) / float64(u.total)
}

// Sampler accumulates a stream of latency (or depth) samples, reporting
// mean and maximum — the form used for the ring interface delays of
// Figure 18.
type Sampler struct {
	n   int64
	sum int64
	max int64
}

// Sample records one observation.
func (s *Sampler) Sample(v int64) {
	s.n++
	s.sum += v
	if v > s.max {
		s.max = v
	}
}

// Count returns how many observations were recorded.
func (s *Sampler) Count() int64 { return s.n }

// Mean returns the average observation, or 0 with no samples.
func (s *Sampler) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// Max returns the largest observation.
func (s *Sampler) Max() int64 { return s.max }

// Table is the reconfigurable SRAM histogram table of §3.3.2: events are
// categorized by (row, column); each table has two halves, and when any
// cell of the active half reaches the overflow limit the halves are
// swapped (in hardware an interrupt lets software drain the frozen half
// while counting continues). Cell sums both halves.
type Table struct {
	Name string
	Rows []string
	Cols []string

	active [][]int64
	frozen [][]int64
	limit  int64
	swaps  int
	onSwap func(*Table)
}

// NewTable builds a table with the given row and column labels.
func NewTable(name string, rows, cols []string) *Table {
	t := &Table{Name: name, Rows: rows, Cols: cols}
	t.active = mkCells(len(rows), len(cols))
	t.frozen = mkCells(len(rows), len(cols))
	return t
}

func mkCells(r, c int) [][]int64 {
	cells := make([][]int64, r)
	backing := make([]int64, r*c)
	for i := range cells {
		cells[i], backing = backing[:c], backing[c:]
	}
	return cells
}

// SetOverflow arms the dual-half overflow mechanism: when a cell of the
// active half reaches limit, the halves swap and fn (may be nil) runs —
// the model of the overflow interrupt.
func (t *Table) SetOverflow(limit int64, fn func(*Table)) {
	t.limit = limit
	t.onSwap = fn
}

// Add counts one event in cell (r, c).
func (t *Table) Add(r, c int) {
	t.active[r][c]++
	if t.limit > 0 && t.active[r][c] >= t.limit {
		t.swap()
	}
}

func (t *Table) swap() {
	// Fold the previously frozen half into a running total by leaving it in
	// place and accumulating: hardware software would drain it; we keep the
	// counts so Cell() stays exact.
	for i := range t.active {
		for j := range t.active[i] {
			t.frozen[i][j] += t.active[i][j]
			t.active[i][j] = 0
		}
	}
	t.swaps++
	if t.onSwap != nil {
		t.onSwap(t)
	}
}

// Swaps returns how many overflow swaps occurred.
func (t *Table) Swaps() int { return t.swaps }

// Cell returns the total count for (r, c) across both halves.
func (t *Table) Cell(r, c int) int64 { return t.active[r][c] + t.frozen[r][c] }

// RowTotal sums a row across both halves.
func (t *Table) RowTotal(r int) int64 {
	var s int64
	for c := range t.Cols {
		s += t.Cell(r, c)
	}
	return s
}

// Total sums the whole table.
func (t *Table) Total() int64 {
	var s int64
	for r := range t.Rows {
		s += t.RowTotal(r)
	}
	return s
}

// String renders the table for reports.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-22s", t.Name, "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for r, rn := range t.Rows {
		fmt.Fprintf(&b, "%-22s", rn)
		for c := range t.Cols {
			fmt.Fprintf(&b, "%14d", t.Cell(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PhaseIDs models the per-processor phase identifier registers: software
// writes a small integer naming the code region it is entering, and every
// subsequent transaction from that processor is attributed to the phase.
type PhaseIDs struct {
	cur    []uint8
	counts map[uint8]*Counter
}

// NewPhaseIDs creates registers for n processors, all in phase 0.
func NewPhaseIDs(n int) *PhaseIDs {
	return &PhaseIDs{cur: make([]uint8, n), counts: map[uint8]*Counter{}}
}

// Set records processor proc entering the given phase.
func (p *PhaseIDs) Set(proc int, phase uint8) { p.cur[proc] = phase }

// Phase returns processor proc's current phase.
func (p *PhaseIDs) Phase(proc int) uint8 { return p.cur[proc] }

// Snapshot returns a copy of every processor's current phase register,
// indexed by processor. Safe to call from any serial point; the telemetry
// endpoint publishes it as the live phase view.
func (p *PhaseIDs) Snapshot() []uint8 { return append([]uint8(nil), p.cur...) }

// Attribute counts one transaction from proc against its current phase.
func (p *PhaseIDs) Attribute(proc int) {
	ph := p.cur[proc]
	c := p.counts[ph]
	if c == nil {
		c = &Counter{}
		p.counts[ph] = c
	}
	c.Inc()
}

// PhaseCount returns the transactions attributed to a phase.
func (p *PhaseIDs) PhaseCount(phase uint8) int64 {
	if c := p.counts[phase]; c != nil {
		return c.Value()
	}
	return 0
}

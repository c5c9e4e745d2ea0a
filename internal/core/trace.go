package core

import (
	"fmt"

	"numachine/internal/trace"
)

// EnableTrace attaches a structured-event tracer to every timed component
// and returns it. Must be called before Run. Sinks are registered in the
// machine's fixed tick order — CPUs, buses, memory modules, network
// caches, ring interfaces, local rings, central ring, IRIs — so the
// tracer's merge rank reproduces the deterministic component order and
// the exported trace is byte-identical across the naive and scheduled
// cycle loops.
func (m *Machine) EnableTrace(perSinkEvents int) *trace.Tracer {
	tr := trace.NewTracer(perSinkEvents)
	tr.CyclesToNS = m.p.CyclesToNS
	for i, c := range m.CPUs {
		c.Tr = tr.Register(fmt.Sprintf("cpu[%d]", i), c.Station, trace.ClassCPU)
	}
	for i, b := range m.Buses {
		b.Tr = tr.Register(fmt.Sprintf("bus[%d]", i), i, trace.ClassBus)
	}
	for i, mem := range m.Mems {
		mem.Tr = tr.Register(fmt.Sprintf("mem[%d]", i), i, trace.ClassMem)
	}
	for i, nc := range m.NCs {
		nc.Tr = tr.Register(fmt.Sprintf("nc[%d]", i), i, trace.ClassNC)
	}
	for i, ri := range m.RIs {
		ri.Tr = tr.Register(fmt.Sprintf("ri[%d]", i), i, trace.ClassRI)
	}
	interconnect := m.g.Stations()
	for _, lr := range m.Locals {
		lr.Tr = tr.Register(lr.Name, interconnect, trace.ClassRing)
	}
	if m.Central != nil {
		m.Central.Tr = tr.Register(m.Central.Name, interconnect, trace.ClassRing)
	}
	for i, iri := range m.IRIs {
		iri.Tr = tr.Register(fmt.Sprintf("iri[%d]", i), interconnect, trace.ClassIRI)
	}
	m.tracer = tr
	return tr
}

// Tracer returns the attached tracer, or nil when tracing is disabled.
func (m *Machine) Tracer() *trace.Tracer { return m.tracer }

// PhaseTransactions aggregates the per-processor phase transaction
// counters (§3.3.4: every memory transaction is attributed to the
// issuing processor's current phase identifier). Phases with no
// transactions are omitted. Each counter array is owned by its CPU and
// updated on that CPU's tick, so aggregation here is safe at any serial
// point of the run loop.
func (m *Machine) PhaseTransactions() map[uint8]int64 {
	out := make(map[uint8]int64)
	for _, c := range m.CPUs {
		c.AddPhaseTransactions(out)
	}
	return out
}

// SetSampler arranges for fn to run at a serial point of the run loop
// every `every` cycles (first at the next step). The machine state fn
// observes is consistent — no component is mid-tick — and the lazily
// reconciled statistics are idempotent, so sampling never perturbs the
// simulation. The live telemetry endpoint publishes snapshots from here.
func (m *Machine) SetSampler(every int64, fn func(*Machine)) {
	if every <= 0 {
		every = 1
	}
	m.sampleEvery = every
	m.sampleAt = m.now
	m.onSample = fn
}

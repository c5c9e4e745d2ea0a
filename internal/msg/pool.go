package msg

// PacketPool is a deterministic free list for ring packets. Packets churn
// fast — every bus message bound for the network is split into packets at
// the sending ring interface, copied at every consuming station and at
// each inter-ring descent, and discarded after reassembly — so they
// dominate the simulator's steady-state allocation rate. The pool recycles
// them without any effect on simulated behaviour: a recycled packet is
// fully overwritten at reuse and zeroed at release, packet pointers are
// never compared or used as map keys (reassembly is keyed by the *Message*
// identity, which is not pooled), and the free list is plain LIFO with no
// time- or scheduling-dependent state, so runs remain bit-identical.
//
// Concurrency contract: a machine owns one PacketPool and one MessagePool,
// shared by every component, and uses them only from its single-threaded
// cycle loop; the pools are unsynchronized. Packets and messages routinely
// die at a different component than the one that allocated them, and a
// single LIFO free list per type absorbs that migration without drift.
//
// All methods tolerate a nil receiver (Get falls back to the heap, Put
// drops the struct) so components constructed directly in tests work
// without wiring a pool.
type PacketPool struct {
	free []*Packet
	news int64 // fresh heap allocations (pool misses)
	hits int64 // recycled packets
}

// poolDebug, when true, makes every Put scan the free list and panic on a
// pointer that is already there — a double free would otherwise surface
// later as two live owners of one recycled struct, far from the bug. The
// scan is O(free) per Put, so it is enabled only by tests (including the
// -race equivalence soaks) via SetPoolDebug.
var poolDebug bool

// SetPoolDebug toggles double-free detection on every pool Put; returns
// the previous setting so tests can restore it.
func SetPoolDebug(on bool) bool {
	prev := poolDebug
	poolDebug = on
	return prev
}

// PoolDebug reports whether double-free detection is armed. The directory
// transaction pools in internal/memory and internal/netcache honor the
// same switch so one soak guards every free list in the machine.
func PoolDebug() bool { return poolDebug }

// Get returns a zeroed packet, recycling a freed one when available.
func (p *PacketPool) Get() *Packet {
	if p == nil {
		return new(Packet)
	}
	if n := len(p.free) - 1; n >= 0 {
		pkt := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		p.hits++
		return pkt
	}
	p.news++
	return new(Packet)
}

// Put releases a dead packet to the free list. The struct is zeroed
// immediately so no Message is kept reachable through the pool and any
// use-after-free reads a visibly blank packet instead of stale routing
// state.
func (p *PacketPool) Put(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	if poolDebug {
		for _, q := range p.free {
			if q == pkt {
				panic("msg: packet double free")
			}
		}
	}
	*pkt = Packet{}
	p.free = append(p.free, pkt)
}

// Stats reports fresh allocations and recycled reuses (diagnostics).
func (p *PacketPool) Stats() (news, hits int64) {
	if p == nil {
		return 0, 0
	}
	return p.news, p.hits
}

// MessagePool is the Message counterpart of PacketPool. Messages are the
// other steady-state allocation: every bus transaction, coherence action
// and network response constructs one, and almost all of them die at a
// well-defined point — consumed by a memory module or network cache after
// handling, delivered to a processor, or superseded by the private copy a
// ring interface hands to its bus. The pool recycles those. Messages whose
// lifetime is shared (multicast originals whose packets alias one Message
// across stations, duplicate-faulted packet chains) are recycled by
// whichever packet death drops the message's reference count to zero.
//
// Determinism: like PacketPool, recycling cannot perturb simulated
// behaviour — a recycled Message is fully overwritten at reuse, zeroed at
// release, and the free list is plain LIFO. Message *identity* is used as
// a reassembly map key while packets are in flight, but every Put site
// runs strictly after the message has left the in-flight maps (or never
// entered them). Like PacketPool, it tolerates a nil receiver.
type MessagePool struct {
	free []*Message
	news int64
	hits int64
}

// Get returns a zeroed message, recycling a freed one when available.
func (p *MessagePool) Get() *Message {
	if p == nil {
		return new(Message)
	}
	if n := len(p.free) - 1; n >= 0 {
		m := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		p.hits++
		return m
	}
	p.news++
	return new(Message)
}

// Put releases a dead message to the free list, zeroing it immediately so
// any use-after-free reads a visibly blank message.
func (p *MessagePool) Put(m *Message) {
	if p == nil || m == nil {
		return
	}
	if poolDebug {
		for _, q := range p.free {
			if q == m {
				panic("msg: message double free")
			}
		}
	}
	*m = Message{}
	p.free = append(p.free, m)
}

// Stats reports fresh allocations and recycled reuses (diagnostics).
func (p *MessagePool) Stats() (news, hits int64) {
	if p == nil {
		return 0, 0
	}
	return p.news, p.hits
}

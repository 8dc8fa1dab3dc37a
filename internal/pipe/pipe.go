package pipe

import (
	"math"

	"vlt/internal/vm"
)

// NeverDone is the DoneCycle value of an instruction whose completion time
// is not yet known.
const NeverDone = math.MaxUint64

// MaxDeps bounds each of a uop's producer lists: an instruction reads
// at most three operand registers plus the implicit vector length
// (isa.Instruction.AppendSrcs).
const MaxDeps = 4

// Uop is one in-flight dynamic instruction, stored by value in a Slab
// slot. The functional outcome (registers, memory, branch direction) was
// already computed by internal/vm at fetch; Uop carries only timing
// state. The handle check and the fields every stage polls come first,
// so they share one cache line.
type Uop struct {
	gen  uint32 // generation of the slot's current occupant
	live bool

	Issued  bool
	Retired bool

	// VecDone marks a vector uop the vector unit has retired from its
	// window. An early-committed vector uop has two owners, the scalar
	// ROB and the vector unit; whichever finishes second frees the slot.
	VecDone bool

	// Mispredicted marks a branch whose predicted direction differed
	// from the architectural outcome.
	Mispredicted bool

	// DoneCycle is when the result becomes architecturally available.
	// NeverDone until execution determines it (or, for barriers and
	// vltcfg, until the machine-level controller releases it).
	DoneCycle uint64

	// ChainCycle is when the first element group of a vector result is
	// available for chaining; equals DoneCycle for scalar results.
	ChainCycle uint64

	// CommitCycle, when set (non-NeverDone), allows the reorder buffer to
	// retire the instruction before DoneCycle. The vector control logic
	// sets it at vector issue: once a vector instruction has issued its
	// addresses are translated and it can no longer fault, so the scalar
	// unit's ROB releases it while the vector unit tracks completion
	// (Espasa-style early commit of vector instructions).
	CommitCycle uint64

	FetchCycle    uint64
	DispatchCycle uint64
	IssueCycle    uint64

	Thread int // software thread id

	// Producers are the older in-flight uops whose results this uop
	// reads. Producers that have already retired are dropped at dispatch
	// (their results are in the register file).
	Producers Deps

	// ScalarProducers are the scalar-register producers of a vector uop,
	// tracked by the scalar unit and consulted by the vector control
	// logic (vector-scalar dependencies).
	ScalarProducers Deps

	// Dyn is the functional record, filled in place by vm.StepReusing.
	// Its EffAddrs buffer survives slot reuse, so steady-state
	// simulation allocates no address slices.
	Dyn vm.Dyn
}

// DoneBy reports whether the uop's result is available at cycle now.
func (u *Uop) DoneBy(now uint64) bool { return u.DoneCycle <= now }

// RetireBy reports whether the reorder buffer may retire the uop at now:
// either its result is complete or it has been committed early.
func (u *Uop) RetireBy(now uint64) bool {
	return u.DoneCycle <= now || (u.CommitCycle != NeverDone && u.CommitCycle <= now)
}

// Deps is an inline list of producer handles.
type Deps struct {
	n uint8
	h [MaxDeps]Handle
}

// Add appends h to the list.
func (d *Deps) Add(h Handle) {
	d.h[d.n] = h
	d.n++
}

// List returns the handles in insertion order.
func (d *Deps) List() []Handle { return d.h[:d.n] }

// Reset empties the list.
func (d *Deps) Reset() { d.n = 0 }

// Handle names one slot of a Slab: the slot index in the low 32 bits,
// the occupant's generation in the high 32. Generations start at 1, so
// the zero Handle (None) never names an instruction. Freeing a slot
// bumps its generation; a handle whose generation no longer matches is
// stale.
//
// A stale handle always belongs to an instruction that retired with its
// result available (DoneCycle <= now): slots are freed only at final
// retirement. Dependence tracking therefore reads a stale handle as a
// producer that gates nothing, which is what lets producer edges and
// last-writer slots hold handles without any reference counting.
type Handle uint64

// None is the handle of no instruction.
const None Handle = 0

func (h Handle) index() uint32 { return uint32(h) }
func (h Handle) gen() uint32   { return uint32(h >> 32) }

const (
	chunkShift = 7
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// Slab stores every in-flight uop of one machine — its scalar units,
// lane cores and vector unit share it — in fixed-size chunks, so the
// *Uop of a live handle stays valid while the slab grows. Freed slots
// are reused last-in first-out, so steady-state simulation allocates
// nothing per instruction. The zero Slab is ready to use. A Slab is not
// safe for concurrent use: one machine's components all tick on one
// goroutine.
type Slab struct {
	chunks []*[chunkSize]Uop
	n      uint32   // slots ever handed out
	free   []uint32 // indices of free slots
}

func (s *Slab) slot(i uint32) *Uop { return &s.chunks[i>>chunkShift][i&chunkMask] }

// New occupies a free slot with an instruction of the given thread
// fetched at now, all completion times unknown, and returns its handle.
// The caller fills the slot's Dyn (vm.StepReusing).
func (s *Slab) New(thread int, now uint64) Handle {
	var i uint32
	if k := len(s.free); k > 0 {
		i = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		i = s.n
		if int(i>>chunkShift) == len(s.chunks) {
			s.chunks = append(s.chunks, new([chunkSize]Uop))
		}
		s.n++
		s.slot(i).gen = 1
	}
	u := s.slot(i)
	u.live = true
	u.Thread = thread
	u.FetchCycle = now
	u.DispatchCycle = 0
	u.IssueCycle = 0
	u.DoneCycle = NeverDone
	u.CommitCycle = NeverDone
	u.ChainCycle = NeverDone
	u.Issued = false
	u.Retired = false
	u.VecDone = false
	u.Mispredicted = false
	u.Producers.Reset()
	u.ScalarProducers.Reset()
	return Handle(u.gen)<<32 | Handle(i)
}

// At returns the uop named by a live handle. A stale or None handle is
// a pipeline bug and panics.
func (s *Slab) At(h Handle) *Uop {
	u := s.Get(h)
	if u == nil {
		panic("pipe: access through a stale uop handle")
	}
	return u
}

// Get returns the uop named by h, or nil when h is None or stale.
func (s *Slab) Get(h Handle) *Uop {
	if h == None {
		return nil
	}
	if u := s.slot(h.index()); u.gen == h.gen() {
		return u
	}
	return nil
}

// Free releases a live handle's slot for reuse. Its generation is
// bumped, so every outstanding copy of h turns stale.
func (s *Slab) Free(h Handle) {
	u := s.At(h)
	u.live = false
	if u.gen++; u.gen == 0 {
		u.gen = 1
	}
	s.free = append(s.free, h.index())
}

// InUse returns the number of live slots.
func (s *Slab) InUse() int { return int(s.n) - len(s.free) }

// Peak returns the high-water mark of live slots. Freed slots are
// reused before any new one is handed out, so it equals the number of
// slots ever handed out.
func (s *Slab) Peak() int { return int(s.n) }

// DoneCycle returns h's completion cycle, or 0 for a stale handle,
// whose instruction completed before it was freed.
func (s *Slab) DoneCycle(h Handle) uint64 {
	if u := s.Get(h); u != nil {
		return u.DoneCycle
	}
	return 0
}

// ChainCycle returns the cycle h's result can first be chained from,
// or 0 for a stale handle.
func (s *Slab) ChainCycle(h Handle) uint64 {
	if u := s.Get(h); u != nil {
		return u.ChainCycle
	}
	return 0
}

// ReadyBy reports whether every producer of u has its result available
// at now.
func (s *Slab) ReadyBy(u *Uop, now uint64) bool {
	for _, p := range u.Producers.List() {
		if s.DoneCycle(p) > now {
			return false
		}
	}
	return true
}

// ReadyCycle returns the first cycle at which every producer of u has
// its result available. known is false while any producer's completion
// time is still unknown (NeverDone) — readiness is then gated on another
// event and no cycle can be predicted yet.
func (s *Slab) ReadyCycle(u *Uop) (cycle uint64, known bool) {
	var r uint64
	for _, p := range u.Producers.List() {
		d := s.DoneCycle(p)
		if d == NeverDone {
			return 0, false
		}
		if d > r {
			r = d
		}
	}
	return r, true
}

// Bimodal is a table of 2-bit saturating counters indexed by PC. The
// timing models run on the architecturally correct path (the functional
// simulator is the fetch stage), so the predictor's only job is deciding
// whether each branch would have been predicted correctly.
type Bimodal struct {
	table []uint8
	mask  int

	Lookups     uint64
	Mispredicts uint64
}

// NewBimodal builds a predictor with the given number of entries (rounded
// up to a power of two, minimum 16).
func NewBimodal(entries int) *Bimodal {
	n := 16
	for n < entries {
		n <<= 1
	}
	t := make([]uint8, n)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &Bimodal{table: t, mask: n - 1}
}

// Predict consults and updates the predictor for a conditional branch at
// pc with architectural outcome taken. It reports whether the prediction
// was correct.
func (b *Bimodal) Predict(pc int, taken bool) bool {
	b.Lookups++
	i := pc & b.mask
	c := b.table[i]
	predTaken := c >= 2
	if taken && c < 3 {
		b.table[i] = c + 1
	} else if !taken && c > 0 {
		b.table[i] = c - 1
	}
	correct := predTaken == taken
	if !correct {
		b.Mispredicts++
	}
	return correct
}

// MispredictRate returns mispredicts/lookups, or 0 when unused.
func (b *Bimodal) MispredictRate() float64 {
	if b.Lookups == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(b.Lookups)
}

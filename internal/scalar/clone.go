package scalar

import (
	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

// This file implements deep copying of the scalar unit for machine
// forking (core.Machine.Fork). Ownership rules: the unit owns its
// caches, predictor, SMT contexts and scheduler window; it borrows the
// functional machine, the shared L2, the machine's uop slab and the
// vector sink, which the caller rebases onto the clone's copies. Queues
// and scoreboards hold slab handles, which name the same instructions
// in the cloned slab, so they copy by value.

// Clone returns a deep copy of the unit running against the given
// (cloned) functional machine, L2 and uop slab. The OnRetire callback
// and the vector sink are NOT carried over: both reference the parent
// machine's assembly; the caller sets them with direct assignment and
// SetVectorSink.
func (u *Unit) Clone(vmach *vm.VM, l2 *mem.L2, slab *pipe.Slab) *Unit {
	n := *u
	n.vmach = vmach
	n.icache = u.icache.Clone(l2)
	n.dcache = u.dcache.Clone(l2)
	n.pred = u.pred.Clone()
	n.slab = slab
	n.vsink = nil
	n.OnRetire = nil
	n.window = append(make([]pipe.Handle, 0, cap(u.window)), u.window...)
	n.ctxs = make([]*context, len(u.ctxs))
	for i, c := range u.ctxs {
		n.ctxs[i] = c.clone()
	}
	// Scratch buffers hold no state between cycles; fresh ones at the
	// original capacities keep the clone's steady state allocation-free.
	n.fetchReady = make([]*context, 0, cap(u.fetchReady))
	n.regScratch = make([]isa.Reg, 0, cap(u.regScratch))
	return &n
}

// clone returns a deep copy of one SMT context. The fetch queue and ROB
// are rebased onto fresh full-capacity arrays (the parent's may be
// mid-array reslices); content and length — everything the timing model
// observes — are identical.
func (c *context) clone() *context {
	n := *c
	n.fetchQArr = append(make([]pipe.Handle, 0, cap(c.fetchQArr)), c.fetchQ...)
	n.robArr = append(make([]pipe.Handle, 0, cap(c.robArr)), c.rob...)
	n.fetchQ = n.fetchQArr
	n.rob = n.robArr
	return &n
}

// SetVectorSink rebinds the unit's vector dispatch target. Machine
// forking uses it to point a cloned unit at the cloned VCL.
func (u *Unit) SetVectorSink(v VectorSink) { u.vsink = v }

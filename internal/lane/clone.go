package lane

import (
	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

// This file implements deep copying of a lane core for machine forking
// (core.Machine.Fork). The core owns its I-cache, predictor and queues;
// it borrows the functional machine, the shared L2 and the machine's uop
// slab, which the caller rebases onto the clone's copies. Queues and
// scoreboards hold slab handles, so they copy by value.

// Clone returns a deep copy of the core running against the given
// (cloned) functional machine, L2 and uop slab. The OnRetire callback
// is NOT carried over — it closes over the parent machine; the caller
// re-wires it.
func (c *Core) Clone(vmach *vm.VM, l2 *mem.L2, slab *pipe.Slab) *Core {
	n := *c
	n.vmach = vmach
	n.icache = c.icache.Clone(l2)
	n.l2 = l2
	n.pred = c.pred.Clone()
	n.slab = slab
	n.OnRetire = nil
	// fetchQ may contain positional None holes (issued entries not yet
	// compacted); the copy keeps them in place.
	n.fetchQ = append(make([]pipe.Handle, 0, cap(c.fetchQ)), c.fetchQ...)
	n.robArr = append(make([]pipe.Handle, 0, cap(c.robArr)), c.rob...)
	n.rob = n.robArr
	n.regScratch = make([]isa.Reg, 0, cap(c.regScratch))
	return &n
}

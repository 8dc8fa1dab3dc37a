package vcl

import (
	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
)

// This file implements deep copying of the vector control logic for
// machine forking (core.Machine.Fork). The VCL's queues and scoreboards
// hold handles into the machine's uop slab, which name the same
// instructions in the cloned slab, so they copy by value.

// Clone returns a deep copy of the VCL backed by the given (cloned) L2
// and uop slab.
func (v *VCL) Clone(l2 *mem.L2, slab *pipe.Slab) *VCL {
	n := *v
	n.l2 = l2
	n.slab = slab
	n.parts = make([]*partition, len(v.parts))
	for i, p := range v.parts {
		n.parts[i] = p.clone()
	}
	return &n
}

// clone returns a deep copy of one partition. The VIQ is rebased onto a
// fresh full-capacity base array (the parent's may be a mid-array
// reslice); content and length — everything the timing model observes —
// are identical.
func (p *partition) clone() *partition {
	n := *p
	n.viqArr = append(make([]pipe.Handle, 0, cap(p.viqArr)), p.viq...)
	n.viq = n.viqArr
	n.win = append(make([]pipe.Handle, 0, cap(p.win)), p.win...)
	n.srcs = make([]isa.Reg, 0, cap(p.srcs))
	return &n
}

// ValidPartitionCount reports whether the VCL could be reconfigured
// into n equal partitions: the lanes must divide evenly and each
// partition needs at least one VIQ entry and one window entry. It does
// not check drain state — only the static shape constraints that
// Partition itself would enforce.
func (v *VCL) ValidPartitionCount(n int) bool {
	return n >= 1 && v.totalLanes%n == 0 && v.cfg.VIQSize/n >= 1 && v.cfg.WindowSize/n >= 1
}

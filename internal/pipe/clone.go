package pipe

import "vlt/internal/vm"

// Clone returns an independent copy of the slab for machine forking
// (core.Machine.Fork). Handles are plain slot indices, so every queue,
// window, scoreboard and producer edge that names a uop carries over to
// the fork by value copy. Live slots get their own effective-address
// buffers; free slots drop theirs, so neither slab can write into an
// address buffer the other reuses.
func (s *Slab) Clone() *Slab {
	n := &Slab{
		chunks: make([]*[chunkSize]Uop, len(s.chunks)),
		n:      s.n,
		free:   append(make([]uint32, 0, cap(s.free)), s.free...),
	}
	for i, c := range s.chunks {
		nc := new([chunkSize]Uop)
		*nc = *c
		n.chunks[i] = nc
	}
	for i := uint32(0); i < s.n; i++ {
		u := n.slot(i)
		if u.live {
			u.Dyn = u.Dyn.Clone()
		} else {
			u.Dyn = vm.Dyn{}
		}
	}
	return n
}

// Clone returns a deep copy of the predictor.
func (b *Bimodal) Clone() *Bimodal {
	return &Bimodal{
		table:       append([]uint8(nil), b.table...),
		mask:        b.mask,
		Lookups:     b.Lookups,
		Mispredicts: b.Mispredicts,
	}
}

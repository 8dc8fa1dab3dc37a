package pipe

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Every field of the structs Slab.Clone copies must declare its clone
// semantics here; clonecheck fails this test when a field is added
// without one (or an entry goes stale).

func TestCloneCoversUop(t *testing.T) {
	clonecheck.Check(t, &Uop{}, map[string]string{
		"Dyn":             "deep copy via vm.Dyn.Clone for live slots; reset for free ones",
		"Thread":          "value copy",
		"FetchCycle":      "value copy",
		"DispatchCycle":   "value copy",
		"IssueCycle":      "value copy",
		"DoneCycle":       "value copy",
		"CommitCycle":     "value copy",
		"ChainCycle":      "value copy",
		"Issued":          "value copy",
		"Retired":         "value copy",
		"VecDone":         "value copy",
		"Mispredicted":    "value copy",
		"Producers":       "value copy (inline handles)",
		"ScalarProducers": "value copy (inline handles)",
		"gen":             "value copy: handles stay valid in the copy",
		"live":            "value copy",
	})
}

func TestCloneCoversSlab(t *testing.T) {
	clonecheck.Check(t, &Slab{}, map[string]string{
		"chunks": "deep copy (fresh chunk arrays)",
		"n":      "value copy",
		"free":   "deep copy",
	})
}

func TestCloneCoversBimodal(t *testing.T) {
	clonecheck.Check(t, &Bimodal{}, map[string]string{
		"table":       "deep copy",
		"mask":        "value copy",
		"Lookups":     "value copy",
		"Mispredicts": "value copy",
	})
}

func TestBimodalCloneIndependent(t *testing.T) {
	p := NewBimodal(64)
	p.Predict(12, true)
	p.Predict(12, true)
	c := p.Clone()
	c.Predict(12, false)
	c.Predict(12, false)
	// The parent's counter is untouched by the clone's lookups, and its
	// table still predicts taken where the clone was trained not-taken.
	if p.Lookups != 2 || c.Lookups != 4 {
		t.Errorf("lookup counters shared: parent %d, clone %d", p.Lookups, c.Lookups)
	}
	if correct := p.Predict(12, true); !correct {
		t.Errorf("clone training leaked into the parent's table")
	}
}

func TestSlabCloneIndependent(t *testing.T) {
	var s Slab
	a := s.New(0, 1)
	s.At(a).Dyn.EffAddrs = append(s.At(a).Dyn.EffAddrs, 64)
	b := s.New(1, 2)
	s.Free(b)
	c := s.Clone()

	// Handles carry over: the copy names the same instructions.
	if u := c.At(a); u.Thread != 0 || u.FetchCycle != 1 || u.Dyn.EffAddrs[0] != 64 {
		t.Fatalf("cloned slot differs: %+v", u)
	}
	if c.Get(b) != nil || c.InUse() != 1 || c.Peak() != 2 {
		t.Fatalf("clone bookkeeping: stale b live=%v, in use %d, peak %d", c.Get(b) != nil, c.InUse(), c.Peak())
	}

	// Writes to either side, address buffers included, stay on that side.
	c.At(a).DoneCycle = 7
	c.At(a).Dyn.EffAddrs[0] = 128
	if u := s.At(a); u.DoneCycle != NeverDone || u.Dyn.EffAddrs[0] != 64 {
		t.Errorf("clone write reached the parent: done %d, addr %d", u.DoneCycle, u.Dyn.EffAddrs[0])
	}
	c.Free(a)
	if s.Get(a) == nil {
		t.Error("freeing in the clone freed the parent's slot")
	}
	s.New(2, 3)
	if s.InUse() != 2 || c.InUse() != 0 {
		t.Errorf("in use: parent %d, clone %d; want 2, 0", s.InUse(), c.InUse())
	}
}

package pipe

import (
	"testing"
	"testing/quick"

	"vlt/internal/isa"
)

func quickCheck(f any) error {
	return quick.Check(f, &quick.Config{MaxCount: 100})
}

// producer occupies a slab slot completing at done.
func producer(s *Slab, done uint64) Handle {
	h := s.New(0, 0)
	s.At(h).DoneCycle = done
	s.At(h).ChainCycle = done
	return h
}

func TestUopReadiness(t *testing.T) {
	var s Slab
	u := s.At(s.New(0, 0))
	u.Producers.Add(producer(&s, 10))
	u.Producers.Add(producer(&s, 20))
	if s.ReadyBy(u, 15) {
		t.Error("ready before slowest producer")
	}
	if !s.ReadyBy(u, 20) {
		t.Error("not ready at slowest producer completion")
	}
	if r, known := s.ReadyCycle(u); !known || r != 20 {
		t.Errorf("ReadyCycle = %d, %t; want 20, true", r, known)
	}
	if u.DoneBy(1 << 62) {
		t.Error("NeverDone uop reported done")
	}
}

func TestUopNoProducersAlwaysReady(t *testing.T) {
	var s Slab
	if !s.ReadyBy(s.At(s.New(0, 0)), 0) {
		t.Error("uop with no producers should be ready")
	}
}

func TestFreedHandleIsStaleAndReady(t *testing.T) {
	var s Slab
	p := producer(&s, NeverDone)
	u := s.At(s.New(0, 0))
	u.Producers.Add(p)
	if _, known := s.ReadyCycle(u); known {
		t.Fatal("an unresolved producer must leave readiness unknown")
	}
	s.Free(p)
	if s.Get(p) != nil {
		t.Fatal("a freed slot's handle still resolves")
	}
	// A freed producer retired with its result available: it gates
	// nothing, whatever its slot's last DoneCycle said.
	if s.DoneCycle(p) != 0 || s.ChainCycle(p) != 0 || !s.ReadyBy(u, 0) {
		t.Errorf("stale producer gates: done %d chain %d", s.DoneCycle(p), s.ChainCycle(p))
	}
	if r, known := s.ReadyCycle(u); !known || r != 0 {
		t.Errorf("ReadyCycle with a stale producer = %d, %t; want 0, true", r, known)
	}
	if s.Get(None) != nil {
		t.Error("None resolves to a uop")
	}
	defer func() {
		if recover() == nil {
			t.Error("At through a stale handle must panic")
		}
	}()
	s.At(p)
}

func TestSlotReuseBumpsGeneration(t *testing.T) {
	var s Slab
	a := s.New(0, 0)
	s.At(a).Dyn.EffAddrs = append(s.At(a).Dyn.EffAddrs, 1, 2, 3)
	s.Free(a)
	b := s.New(1, 5)
	if b.index() != a.index() {
		t.Fatalf("freed slot not reused: %d then %d", a.index(), b.index())
	}
	if b.gen() == a.gen() || b == a {
		t.Fatalf("reuse kept generation %d", a.gen())
	}
	if s.Get(a) != nil {
		t.Error("old handle resolves to the slot's new occupant")
	}
	u := s.At(b)
	if u.Thread != 1 || u.FetchCycle != 5 || u.DoneCycle != NeverDone || u.Retired {
		t.Errorf("reused slot not reset: %+v", u)
	}
	if cap(u.Dyn.EffAddrs) < 3 {
		t.Error("reused slot lost its address buffer")
	}
	if s.InUse() != 1 || s.Peak() != 1 {
		t.Errorf("in use %d, peak %d; want 1, 1", s.InUse(), s.Peak())
	}
}

// Producer lists are inline arrays of MaxDeps entries; no instruction
// may read more registers than that.
func TestMaxDepsCoversEveryOp(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		in := isa.Instruction{Op: op, Rd: isa.R(1), Ra: isa.R(2), Rb: isa.R(3), Rc: isa.R(4)}
		if n := len(in.AppendSrcs(nil)); n > MaxDeps {
			t.Errorf("%s reads %d registers, MaxDeps is %d", op.Info().Name, n, MaxDeps)
		}
	}
}

func TestSlabPointersSurviveGrowth(t *testing.T) {
	var s Slab
	first := s.New(0, 0)
	u := s.At(first)
	for i := 0; i < 3*chunkSize; i++ {
		s.New(0, uint64(i))
	}
	u.DoneCycle = 42
	if s.At(first).DoneCycle != 42 {
		t.Error("a *Uop taken before the slab grew no longer aliases its slot")
	}
}

func TestBimodalLearnsLoopBranch(t *testing.T) {
	b := NewBimodal(64)
	// A loop back-edge taken 100 times: after warm-up, always correct.
	wrong := 0
	for i := 0; i < 100; i++ {
		if !b.Predict(7, true) {
			wrong++
		}
	}
	if wrong > 2 {
		t.Errorf("loop branch mispredicted %d times, want <= 2", wrong)
	}
	// Loop exit: one mispredict.
	if b.Predict(7, false) {
		t.Error("loop exit should mispredict")
	}
}

func TestBimodalAlternatingIsHard(t *testing.T) {
	b := NewBimodal(64)
	wrong := 0
	taken := false
	for i := 0; i < 100; i++ {
		if !b.Predict(3, taken) {
			wrong++
		}
		taken = !taken
	}
	if wrong < 40 {
		t.Errorf("alternating branch should mispredict often, got %d/100", wrong)
	}
	if b.MispredictRate() <= 0 {
		t.Error("mispredict rate should be positive")
	}
}

func TestBimodalSizing(t *testing.T) {
	b := NewBimodal(1) // rounds up to minimum 16
	if len(b.table) != 16 {
		t.Errorf("table size %d, want 16", len(b.table))
	}
	b2 := NewBimodal(100)
	if len(b2.table) != 128 {
		t.Errorf("table size %d, want 128", len(b2.table))
	}
}

func TestBimodalIndependentPCs(t *testing.T) {
	b := NewBimodal(256)
	for i := 0; i < 10; i++ {
		b.Predict(1, true)
		b.Predict(2, false)
	}
	if !b.Predict(1, true) {
		t.Error("pc 1 should predict taken")
	}
	if !b.Predict(2, false) {
		t.Error("pc 2 should predict not-taken")
	}
}

func TestBimodalRatesBoundedQuick(t *testing.T) {
	// Property: for arbitrary outcome sequences the predictor never
	// panics and its mispredict rate stays within [0, 1].
	f := func(pcs []uint16, outcomes []bool) bool {
		b := NewBimodal(128)
		n := len(pcs)
		if len(outcomes) < n {
			n = len(outcomes)
		}
		for i := 0; i < n; i++ {
			b.Predict(int(pcs[i]), outcomes[i])
		}
		r := b.MispredictRate()
		return r >= 0 && r <= 1
	}
	if err := quickCheck(f); err != nil {
		t.Fatal(err)
	}
}

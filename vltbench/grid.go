package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"regexp"
	"time"

	"vlt"
	"vlt/internal/asm"
	"vlt/internal/core"
	"vlt/internal/workloads"
)

// The grid workload is the paper's design space: every valid workload x
// machine cell at scale 1, simulated by one worker through vlt.Run in
// whole passes whose order the seed shuffles. Its 48 vector cells put
// p50 on the vector path; its 30 radix/ocean/barnes cells put p90 on
// the scalar OoO/SMT and lane-scalar path.

// gridCell is one workload x machine cell of the design space.
type gridCell struct {
	workload string
	machine  vlt.Machine
	vector   bool // the workload's class is not scalar-parallel
}

func (c gridCell) String() string { return c.workload + "/" + string(c.machine) }

// scalarOnly reports whether the machine has no vector unit.
func scalarOnly(m vlt.Machine) bool { return m == vlt.MachineCMT || m == vlt.MachineVLTScalar }

// gridCells enumerates the valid cells: vector workloads need a vector
// unit, so they skip the two scalar-only machines.
func gridCells() ([]gridCell, error) {
	var out []gridCell
	for _, name := range vlt.Workloads() {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		vector := w.Class != workloads.ScalarParallel
		for _, m := range vlt.Machines() {
			if vector && scalarOnly(m) {
				continue
			}
			out = append(out, gridCell{workload: name, machine: m, vector: vector})
		}
	}
	return out, nil
}

// gridWarmup lists the set-up's warm-up cells: every workload once, the
// vector workloads on V4-CMT and the scalar ones on the base machine.
// They are fixed, so set-up time does not depend on the seed, and they
// add up to about half a second, so one set-up is not one cell's
// jitter.
func gridWarmup() ([]gridCell, error) {
	var out []gridCell
	for _, name := range vlt.Workloads() {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		c := gridCell{workload: name, machine: vlt.MachineV4CMT, vector: true}
		if w.Class == workloads.ScalarParallel {
			c = gridCell{workload: name, machine: vlt.MachineBase}
		}
		out = append(out, c)
	}
	return out, nil
}

// layerSpec is a cell resolved to the inputs of the layers below the
// facade: the machine configuration and the program's build
// parameters, as vlt.Run resolves them at default options.
type layerSpec struct {
	w      *workloads.Workload
	cfg    core.Config
	params workloads.Params
}

func resolveLayers(workload string, m vlt.Machine) (layerSpec, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return layerSpec{}, err
	}
	var cfg core.Config
	threads := 0
	switch m {
	case vlt.MachineBase:
		cfg, threads = core.Base(8), 1
	case vlt.MachineV2SMT:
		cfg, threads = core.V2SMT(), 2
	case vlt.MachineV2CMP:
		cfg, threads = core.V2CMP(), 2
	case vlt.MachineV2CMPh:
		cfg, threads = core.V2CMPh(), 2
	case vlt.MachineV4SMT:
		cfg, threads = core.V4SMT(), 4
	case vlt.MachineV4CMT:
		cfg, threads = core.V4CMT(), 4
	case vlt.MachineV4CMP:
		cfg, threads = core.V4CMP(), 4
	case vlt.MachineV4CMPh:
		cfg, threads = core.V4CMPh(), 4
	case vlt.MachineCMT:
		cfg, threads = core.CMT(4), 4
	case vlt.MachineVLTScalar:
		cfg, threads = core.VLTScalar(8), 8
	default:
		return layerSpec{}, fmt.Errorf("unknown machine %q", m)
	}
	cfg.NumThreads = threads
	if cfg.Lanes > 0 && !cfg.LaneScalarMode {
		cfg.InitialPartitions = threads
	}
	return layerSpec{w: w, cfg: cfg, params: workloads.Params{
		Threads: threads, Scale: 1, ScalarOnly: scalarOnly(m),
	}}, nil
}

// passSums are the per-layer counters summed over one grid pass. They
// are exact: a change that only speeds up the simulator leaves them
// identical.
var passSums = []struct {
	name string
	re   *regexp.Regexp
}{
	{"l2.reads", regexp.MustCompile(`^l2\.reads$`)},
	{"l2.tag.misses", regexp.MustCompile(`^l2\.tag\.misses$`)},
	{"l2.bank_stalls", regexp.MustCompile(`^l2\.bank_stalls$`)},
	{"vcl.util.busy", regexp.MustCompile(`^vcl\.util\.busy$`)},
	{"vcl.util.stalled", regexp.MustCompile(`^vcl\.util\.stalled$`)},
	{"su.dispatch.stall.rob", regexp.MustCompile(`^su\d+\.dispatch\.stall\.rob$`)},
	{"su.fetch.stall.branch", regexp.MustCompile(`^su\d+\.fetch\.stall\.branch$`)},
}

// cellCounts is what one simulation of a cell produced; every pass must
// reproduce it exactly.
type cellCounts struct {
	cycles, retired, vecElemOps uint64
	digest                      uint64     // hash of the full metric registry
	sums                        [7]float64 // one total per passSums entry
}

func countsOf(cycles, retired, vecElemOps uint64, names []string, values []float64) cellCounts {
	c := cellCounts{cycles: cycles, retired: retired, vecElemOps: vecElemOps}
	h := fnv.New64a()
	for i, n := range names {
		fmt.Fprintf(h, "%s=%x;", n, math.Float64bits(values[i]))
		for j, s := range passSums {
			if s.re.MatchString(n) {
				c.sums[j] += values[i]
			}
		}
	}
	c.digest = h.Sum64()
	return c
}

// gridRun is one grid workload run in progress.
type gridRun struct {
	cfg   config
	res   *result
	cells []gridCell
	rng   *rand.Rand
	want  map[gridCell]cellCounts // first counts seen per cell
	ops   int                     // ops completed, for fault injection

	lat       *latencies
	passDur   []float64
	cycles    uint64
	firstPass map[gridCell]cellCounts
	runNs     [2]time.Duration // traced: Machine.Run time by class (0 scalar, 1 vector)
	runCycles [2]uint64
	tracer    *tracer
}

func runGrid(cfg config) (*result, error) {
	cells, err := gridCells()
	if err != nil {
		return nil, err
	}
	if len(cells) != 78 {
		return nil, fmt.Errorf("grid has %d cells, want 78", len(cells))
	}
	if cfg.subset > 0 && cfg.subset < len(cells) {
		var sub []gridCell
		for i := 0; i < cfg.subset; i++ {
			sub = append(sub, cells[i*len(cells)/cfg.subset])
		}
		cells = sub
	}
	res := newResult()
	setupS, err := timeSetup(res, cfg.setupReps, func() error { return gridSetup(cells) })
	if err != nil {
		return nil, err
	}
	g := &gridRun{cfg: cfg, res: res, cells: cells, rng: rand.New(rand.NewSource(cfg.seed)),
		want: map[gridCell]cellCounts{}, lat: newLatencies()}

	if !cfg.trace {
		w := startWindow()
		heapMB := sampleHeap(func() { g.passes(cfg.seconds) })
		w.finish()
		all := g.lat.get("vector", "scalar")
		res.set("setup_s", "s", setupS)
		res.set("p50_ms", "ms", median(all))
		res.set("p90_ms", "ms", percentile(all, 90))
		res.set("p99_ms", "ms", percentile(all, 99))
		res.set("fill_p50_ms", "ms", median(g.lat.get("vector")))
		res.set("sweep_p50_ms", "ms", median(g.passDur))
		ops := g.lat.count("vector", "scalar")
		res.set("ops_per_s", "1/s", float64(ops)/w.cpuUsed.Seconds())
		res.set("sim_kcycles_per_s", "kcycles/s", float64(g.cycles)/1e3/w.cpuUsed.Seconds())
		res.set("cpu_ms_per_op", "ms", ms(w.cpuUsed)/float64(ops))
		res.set("heap_p90_mb", "MiB", heapMB)
		res.extra["populations"] = g.lat.counts()
		res.extra["wall_s"], res.extra["cpu_s"] = w.elapsed.Seconds(), w.cpuUsed.Seconds()
		return res, nil
	}

	// Traced run: untraced passes through the facade alternate with
	// traced passes through the layers, under one CPU profile.
	setLayerDefaults(res)
	g.tracer = newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	untraced, traced := newLatencies(), newLatencies()
	allocs, gcs := traceSteps(g.tracer, cfg.seconds, func(on bool) {
		g.lat = untraced
		if on {
			g.lat = traced
		}
		g.pass()
	})
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	spans, err := finishTrace(g.tracer, cfg, res)
	if err != nil {
		return nil, err
	}
	res.setMemPerOp(allocs, gcs, untraced.count("vector", "scalar"))

	var sums [7]float64
	var cyc, ret, vec uint64
	for _, c := range g.firstPass {
		cyc += c.cycles
		ret += c.retired
		vec += c.vecElemOps
		for i := range sums {
			sums[i] += c.sums[i]
		}
	}
	res.set("workloads.build_ms", "ms", median(durations(spans, "workloads.build")))
	res.set("workloads.verify_ms", "ms", median(durations(spans, "workloads.verify")))
	res.set("core.new_machine_ms", "ms", median(durations(spans, "core.new_machine")))
	res.set("core.run_ms", "ms", median(durations(spans, "core.run")))
	for i, class := range []string{"scalar", "vector"} {
		if g.runCycles[i] > 0 {
			res.set("core.ns_per_simcycle."+class, "ns", float64(g.runNs[i])/float64(g.runCycles[i]))
		}
	}
	res.set("sim.cycles", "count", float64(cyc))
	res.set("sim.retired", "count", float64(ret))
	res.set("sim.vec_elem_ops", "count", float64(vec))
	for i, s := range passSums {
		res.set(s.name, "count", sums[i])
	}
	res.setCPUShares(shares)
	res.setOverhead(untraced.get("vector", "scalar"), traced.get("vector", "scalar"))
	return res, nil
}

// gridSetup builds and vets every distinct program of the grid, then
// runs the warm-up cells.
func gridSetup(cells []gridCell) error {
	seen := map[string]bool{}
	for _, c := range cells {
		spec, err := resolveLayers(c.workload, c.machine)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("%s/%d/%t", c.workload, spec.params.Threads, spec.params.ScalarOnly)
		if seen[key] {
			continue
		}
		seen[key] = true
		if err := spec.w.Build(spec.params).VetErr(); err != nil {
			return fmt.Errorf("set-up: %s: %w", c, err)
		}
	}
	warm, err := gridWarmup()
	if err != nil {
		return err
	}
	for _, c := range warm {
		r, err := vlt.Run(c.workload, c.machine, vlt.Options{})
		if err != nil {
			return fmt.Errorf("set-up: warm-up %s: %w", c, err)
		}
		if !r.Verified {
			return fmt.Errorf("set-up: warm-up %s did not verify", c)
		}
	}
	return nil
}

// passes runs whole shuffled passes until d has elapsed, and at least
// two, so every cell's counts are checked against a second simulation.
func (g *gridRun) passes(d time.Duration) {
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < d; n++ {
		g.pass()
	}
}

// pass simulates every cell once, in seeded order.
func (g *gridRun) pass() {
	t := cpuTime()
	got := map[gridCell]cellCounts{}
	for _, i := range g.rng.Perm(len(g.cells)) {
		c := g.cells[i]
		g.res.attempted++
		counts, lat, err := g.op(c)
		g.ops++
		if err != nil {
			g.res.fail("%s: %v", c, err)
			continue
		}
		if want, ok := g.want[c]; !ok {
			g.want[c] = counts
		} else if want != counts {
			g.res.fail("%s: simulated counts differ between passes (cycles %d vs %d)", c, counts.cycles, want.cycles)
			continue
		}
		got[c] = counts
		g.cycles += counts.cycles
		pop := "scalar"
		if c.vector {
			pop = "vector"
		}
		g.lat.add(pop, lat)
	}
	g.passDur = append(g.passDur, ms(cpuTime()-t))
	if g.firstPass == nil {
		g.firstPass = got
	}
}

// op simulates one cell, through the facade when untraced and through
// the layers with spans when traced, and returns its counts and the
// process CPU time it took.
func (g *gridRun) op(c gridCell) (cellCounts, time.Duration, error) {
	var counts cellCounts
	var err error
	var d time.Duration
	if !g.tracer.enabled() {
		var r vlt.Result
		d = cpuOf(func() { r, err = vlt.Run(c.workload, c.machine, vlt.Options{}) })
		if err == nil && !r.Verified {
			err = errors.New("result not verified")
		}
		if err == nil {
			names := make([]string, len(r.Metrics))
			values := make([]float64, len(r.Metrics))
			for i, m := range r.Metrics {
				names[i], values[i] = m.Name, m.Value
			}
			counts = countsOf(r.Cycles, r.Retired, r.VecElemOps, names, values)
		}
	} else {
		d = cpuOf(func() {
			g.tracer.timed("grid.op", ref{}, func(op ref) { counts, err = g.layerOp(c, op) })
		})
	}
	if err == nil && g.cfg.fault != nil && g.ops >= g.cfg.fault.after {
		switch g.cfg.fault.kind {
		case "cycles":
			counts.cycles++
		case "unverified":
			err = errors.New("result not verified")
		}
	}
	return counts, d, err
}

// layerOp is vlt.Run decomposed into the layer calls the trace times:
// build the program, construct the machine, run it, verify the output.
func (g *gridRun) layerOp(c gridCell, op ref) (cellCounts, error) {
	t := g.tracer
	spec, err := resolveLayers(c.workload, c.machine)
	if err != nil {
		return cellCounts{}, err
	}
	p := spec.params
	var program *asm.Program
	t.timed("workloads.build", op, func(ref) { program = spec.w.Build(p) })
	var m *core.Machine
	t.timed("core.new_machine", op, func(ref) { m, err = core.NewMachine(spec.cfg, program) })
	if err != nil {
		return cellCounts{}, err
	}
	var r core.Result
	runD := t.timed("core.run", op, func(ref) { r, err = m.Run() })
	if err != nil {
		return cellCounts{}, err
	}
	class := 0
	if c.vector {
		class = 1
	}
	g.runNs[class] += runD
	g.runCycles[class] += r.Cycles
	t.timed("workloads.verify", op, func(ref) { err = spec.w.Verify(m.VM(), program, p) })
	if err != nil {
		return cellCounts{}, fmt.Errorf("verification failed: %w", err)
	}
	vals := r.Metrics()
	names := make([]string, len(vals))
	values := make([]float64, len(vals))
	for i, v := range vals {
		names[i], values[i] = v.Name, v.AsFloat()
	}
	return countsOf(r.Cycles, r.Retired, r.VecElemOps, names, values), nil
}

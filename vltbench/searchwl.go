package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"vlt"
	"vlt/internal/asm"
	"vlt/internal/core"
	"vlt/internal/search"
)

// The search workload runs SearchLanePartition on V4-CMT with one
// worker. It is the only workload that forks machines, and all of its
// simulation is vector datapath work. Three workloads run equally often
// in seeded order, and their search times differ (multprec < bt <
// mpenc), so p50 sits in the middle of bt's population and p90 inside
// mpenc's, never on the edge between two. trfd is left out: it has no
// repartition decision to search.
var searchWorkloads = []string{"mpenc", "bt", "multprec"}

const searchMachine = vlt.MachineV4CMT

// searchOutcome is what one search must reproduce on every repetition.
type searchOutcome struct {
	plan     []int
	cycles   uint64
	explored uint64 // cycles summed over every searched run
	runs     int
	discard  int
	firstCut uint64 // cycle of the default run's first decision
}

type searchRun struct {
	cfg    config
	res    *result
	rng    *rand.Rand
	want   map[string]searchOutcome // first outcome seen per workload
	ops    int
	tracer *tracer

	lat      *latencies
	perRun   []float64 // ms per simulated run, per op
	roundDur []float64
	explored uint64
	runs     int
	discards int
	runNs    time.Duration // traced: replay Machine.Run time
	runCyc   uint64
}

func runSearch(cfg config) (*result, error) {
	res := newResult()
	setupS, err := timeSetup(res, cfg.setupReps, searchSetup)
	if err != nil {
		return nil, err
	}
	s := &searchRun{cfg: cfg, res: res, rng: rand.New(rand.NewSource(cfg.seed)),
		want: map[string]searchOutcome{}, lat: newLatencies()}

	if !cfg.trace {
		w := startWindow()
		heapMB := sampleHeap(func() { s.rounds(cfg.seconds) })
		w.finish()
		all := s.lat.get(searchWorkloads...)
		res.set("setup_s", "s", setupS)
		res.set("p50_ms", "ms", median(all))
		res.set("p90_ms", "ms", percentile(all, 90))
		res.set("p99_ms", "ms", percentile(all, 99))
		res.set("fill_p50_ms", "ms", median(s.perRun))
		res.set("sweep_p50_ms", "ms", median(s.roundDur))
		ops := s.lat.count(searchWorkloads...)
		res.set("ops_per_s", "1/s", float64(ops)/w.cpuUsed.Seconds())
		res.set("sim_kcycles_per_s", "kcycles/s", float64(s.explored)/1e3/w.cpuUsed.Seconds())
		res.set("cpu_ms_per_op", "ms", ms(w.cpuUsed)/float64(ops))
		res.set("heap_p90_mb", "MiB", heapMB)
		res.extra["populations"] = s.lat.counts()
		res.extra["wall_s"], res.extra["cpu_s"] = w.elapsed.Seconds(), w.cpuUsed.Seconds()
		return res, nil
	}

	// Traced run: untraced rounds through the facade alternate with
	// traced rounds through the layers, under one CPU profile.
	setLayerDefaults(res)
	s.tracer = newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	untraced, traced := newLatencies(), newLatencies()
	allocs, gcs := traceSteps(s.tracer, cfg.seconds, func(on bool) {
		s.lat = untraced
		if on {
			s.lat = traced
		}
		s.round()
	})
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	spans, err := finishTrace(s.tracer, cfg, res)
	if err != nil {
		return nil, err
	}
	ops := untraced.count(searchWorkloads...) + traced.count(searchWorkloads...)
	res.setMemPerOp(allocs, gcs, untraced.count(searchWorkloads...))
	res.set("search.runs_per_op", "count", float64(s.runs)/float64(ops))
	res.set("search.discarded_per_op", "count", float64(s.discards)/float64(ops))
	res.set("workloads.build_ms", "ms", median(durations(spans, "workloads.build")))
	res.set("workloads.verify_ms", "ms", median(durations(spans, "workloads.verify")))
	res.set("core.new_machine_ms", "ms", median(durations(spans, "core.new_machine")))
	res.set("core.run_ms", "ms", median(durations(spans, "core.run")))
	if s.runCyc > 0 {
		res.set("core.ns_per_simcycle.vector", "ns", float64(s.runNs)/float64(s.runCyc))
	}
	fork, replay := median(durations(spans, "core.fork")), median(durations(spans, "core.replay"))
	res.set("core.fork_ms", "ms", fork)
	res.set("core.replay_ms", "ms", replay)
	if replay > 0 {
		res.set("core.fork_replay_ratio", "ratio", fork/replay)
	}
	res.setCPUShares(shares)
	res.setOverhead(untraced.get(searchWorkloads...), traced.get(searchWorkloads...))
	return res, nil
}

// searchSetup builds and vets each searched program, then runs one
// untimed warm-up search of each.
func searchSetup() error {
	for _, w := range searchWorkloads {
		spec, err := resolveLayers(w, searchMachine)
		if err != nil {
			return err
		}
		if err := spec.w.Build(spec.params).VetErr(); err != nil {
			return fmt.Errorf("set-up: %s: %w", w, err)
		}
		r, err := vlt.SearchLanePartition(w, searchMachine, vlt.SearchOptions{Workers: 1})
		if err != nil {
			return fmt.Errorf("set-up: warm-up search of %s: %w", w, err)
		}
		if !r.Verified {
			return fmt.Errorf("set-up: warm-up search of %s did not verify", w)
		}
	}
	return nil
}

// rounds runs rounds until d has elapsed, and at least two, so every
// search is repeated.
func (s *searchRun) rounds(d time.Duration) {
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < d; n++ {
		s.round()
	}
}

// round searches every workload once, in seeded order.
func (s *searchRun) round() {
	t := cpuTime()
	for _, i := range s.rng.Perm(len(searchWorkloads)) {
		w := searchWorkloads[i]
		s.res.attempted++
		out, lat, err := s.op(w)
		s.ops++
		if err == nil && s.tracer.enabled() {
			err = s.forkVsReplay(w, out.firstCut)
		}
		if err != nil {
			s.res.fail("search %s: %v", w, err)
			continue
		}
		if want, ok := s.want[w]; !ok {
			s.want[w] = out
		} else if want.cycles != out.cycles || !slices.Equal(want.plan, out.plan) {
			s.res.fail("search %s: best plan %v (%d cycles) differs from first repetition %v (%d cycles)",
				w, out.plan, out.cycles, want.plan, want.cycles)
			continue
		}
		s.lat.add(w, lat)
		s.perRun = append(s.perRun, ms(lat)/float64(out.runs))
		s.explored += out.explored
		s.runs += out.runs
		s.discards += out.discard
	}
	s.roundDur = append(s.roundDur, ms(cpuTime()-t))
}

// op runs one search, through the facade when untraced and through the
// layers with spans when traced, and returns its outcome and the process
// CPU time it took.
func (s *searchRun) op(w string) (searchOutcome, time.Duration, error) {
	var out searchOutcome
	var err error
	var d time.Duration
	if !s.tracer.enabled() {
		var r vlt.SearchResult
		d = cpuOf(func() { r, err = vlt.SearchLanePartition(w, searchMachine, vlt.SearchOptions{Workers: 1}) })
		if err == nil && !r.Verified {
			err = errors.New("best plan not verified")
		}
		if err == nil {
			out = searchOutcome{plan: r.Best.Plan, cycles: r.Best.Cycles, runs: r.Simulated, discard: r.Discarded}
			for _, run := range r.Runs {
				out.explored += run.Cycles
			}
		}
	} else {
		d = cpuOf(func() {
			s.tracer.timed("search.op", ref{}, func(op ref) { out, err = s.layerOp(w, op) })
		})
	}
	if err == nil && s.cfg.fault != nil && s.ops >= s.cfg.fault.after {
		switch s.cfg.fault.kind {
		case "cycles":
			out.cycles++
		case "plan":
			out.plan = append(slices.Clone(out.plan), 1)
		case "unverified":
			err = errors.New("best plan not verified")
		}
	}
	return out, d, err
}

// layerOp is SearchLanePartition decomposed into the layer calls the
// trace times: build the program, search (each machine construction a
// child span), then replay the best plan from scratch and verify it.
func (s *searchRun) layerOp(w string, op ref) (searchOutcome, error) {
	t := s.tracer
	spec, err := resolveLayers(w, searchMachine)
	if err != nil {
		return searchOutcome{}, err
	}
	var prog *asm.Program
	t.timed("workloads.build", op, func(ref) { prog = spec.w.Build(spec.params) })
	var out search.Outcome
	t.timed("search.optimize", op, func(parent ref) {
		build := func() (m *core.Machine, err error) {
			t.timed("core.new_machine", parent, func(ref) { m, err = core.NewMachine(spec.cfg, prog) })
			return m, err
		}
		out, err = search.Optimize(build, search.Options{Workers: 1})
	})
	if err != nil {
		return searchOutcome{}, err
	}
	if out.Best.Failed {
		return searchOutcome{}, fmt.Errorf("best run failed: %s", out.Best.Err)
	}
	var m *core.Machine
	t.timed("core.new_machine", op, func(ref) { m, err = core.NewMachine(spec.cfg, prog) })
	if err != nil {
		return searchOutcome{}, err
	}
	plan := out.Best.Plan
	m.SetForkAt(func(_ *core.Machine, pt core.ForkPoint) int {
		if pt.Index < len(plan) {
			return plan[pt.Index]
		}
		return 0
	})
	var r core.Result
	runD := t.timed("core.run", op, func(ref) { r, err = m.Run() })
	if err != nil {
		return searchOutcome{}, err
	}
	s.runNs += runD
	s.runCyc += r.Cycles
	if r.Cycles != out.Best.Cycles {
		return searchOutcome{}, fmt.Errorf("best plan replayed to %d cycles, searched %d", r.Cycles, out.Best.Cycles)
	}
	t.timed("workloads.verify", op, func(ref) { err = spec.w.Verify(m.VM(), prog, spec.params) })
	if err != nil {
		return searchOutcome{}, fmt.Errorf("best plan fails verification: %w", err)
	}
	res := searchOutcome{plan: plan, cycles: out.Best.Cycles, runs: out.Simulated, discard: out.Discarded}
	for _, run := range out.Runs {
		res.explored += run.Cycles
	}
	if len(out.Runs) > 0 && len(out.Runs[0].Decisions) > 0 {
		res.firstCut = out.Runs[0].Decisions[0].Cycle
	}
	return res, nil
}

// forkVsReplay times the two ways to reach a workload's first
// repartition decision: rebuild the machine and re-simulate the prefix
// (core.replay), or fork a machine already there (core.fork). Both run
// outside the op's span and latency.
func (s *searchRun) forkVsReplay(w string, cut uint64) error {
	if cut == 0 {
		return errors.New("the default run made no repartition decision")
	}
	spec, err := resolveLayers(w, searchMachine)
	if err != nil {
		return err
	}
	prog := spec.w.Build(spec.params)
	var m *core.Machine
	s.tracer.timed("core.replay", ref{}, func(ref) {
		if m, err = core.NewMachine(spec.cfg, prog); err == nil {
			err = m.RunUntil(cut)
		}
	})
	if err != nil {
		return fmt.Errorf("replay to cycle %d: %w", cut, err)
	}
	s.tracer.timed("core.fork", ref{}, func(ref) { m.Fork() })
	return nil
}

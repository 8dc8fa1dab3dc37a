package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeConfig is a short run of one workload: one set-up, a fraction of
// a second of load (every workload still repeats each op at least
// once), and the shipped auditor setting.
func smokeConfig(t *testing.T, workload string, trace bool, f *fault) config {
	t.Helper()
	// A test binary resolves the invariant auditor on; the benchmark
	// measures the shipped configuration, where it is off.
	t.Setenv("VLT_AUDIT", "off")
	return config{
		workload:  workload,
		seed:      7,
		seconds:   500 * time.Millisecond,
		trace:     trace,
		dir:       t.TempDir(),
		setupReps: 1,
		subset:    6,
		fault:     f,
	}
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(list string, got []struct{ Name, Unit string }, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness reports %d", list, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), harness has %s (%s)",
					list, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}

// checkReport asserts a clean run that reports every declared metric.
func checkReport(t *testing.T, res *result, trace bool) {
	t.Helper()
	if res.attempted == 0 || res.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.failures)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(res.metrics) != len(want) {
		t.Errorf("reported %d metrics, want %d", len(res.metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case got.Unit != m.unit:
			t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
		case !trace && got.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
		}
	}
	line, err := res.line()
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(line, &out); err != nil || len(out) != 4 {
		t.Fatalf("result line %s: want exactly correct, attempted, failed, metrics", line)
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range []string{"grid", "search", "serve"} {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w, trace, nil)
			res, err := workloadFuncs[w](cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			checkReport(t, res, trace)
			if trace {
				if _, err := os.Stat(cfg.dir + "/spans.json"); err != nil {
					t.Errorf("%s: span file: %v", w, err)
				}
			}
		}
	}
}

// TestTracedLayerFigures checks that the traced runs measure the layers
// each workload exercises.
func TestTracedLayerFigures(t *testing.T) {
	nonzero := map[string][]string{
		"grid": {"workloads.build_ms", "core.run_ms", "core.ns_per_simcycle.vector",
			"core.ns_per_simcycle.scalar", "sim.cycles", "l2.reads", "cpu.scalar", "alloc_kb_per_op"},
		"search": {"core.fork_ms", "core.replay_ms", "core.fork_replay_ratio", "search.runs_per_op",
			"core.ns_per_simcycle.vector", "cpu.vcl"},
		"serve": {"serve.tier_ms.memory", "serve.tier_ms.disk", "serve.tier_ms.not_modified",
			"serve.tier_ms.miss", "serve.handler_ms", "vltclient.transport_ms",
			"fleet.compute_ms.local", "fleet.compute_ms.remote", "serve.store.writes_per_fill", "cpu.net_http"},
	}
	for w, names := range nonzero {
		cfg := smokeConfig(t, w, true, nil)
		cfg.seconds = time.Second
		res, err := workloadFuncs[w](cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for _, n := range names {
			if res.metrics[n].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, n, res.metrics[n].Value)
			}
		}
	}
}

// TestChecksTripOnSeededFaults shows each correctness check fails an op
// when its output is perturbed.
func TestChecksTripOnSeededFaults(t *testing.T) {
	cases := []struct {
		workload, kind, want string
	}{
		{"grid", "cycles", "differ between passes"},
		{"grid", "unverified", "not verified"},
		{"search", "cycles", "differs from first repetition"},
		{"search", "plan", "differs from first repetition"},
		{"search", "unverified", "not verified"},
		{"serve", "body", "body differs"},
		{"serve", "etag", "304 for ETag"},
		{"serve", "trailer", "sweep trailer"},
		{"serve", "retry", "retried"},
		{"serve", "notmodified", "304 for ETag"},
		{"serve", "peer", "over the measured window"},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+c.kind, func(t *testing.T) {
			cfg := smokeConfig(t, c.workload, false, &fault{kind: c.kind, after: 2})
			if c.workload == "serve" {
				cfg.seconds = 1500 * time.Millisecond // room for a sweep after the fault arms
			}
			res, err := workloadFuncs[c.workload](cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 {
				t.Fatalf("fault %s did not fail any op", c.kind)
			}
			if !strings.Contains(strings.Join(res.failures, "\n"), c.want) {
				t.Errorf("failures %q do not mention %q", res.failures, c.want)
			}
			line, _ := res.line()
			if !bytes.Contains(line, []byte(`"correct":false`)) {
				t.Errorf("result line %s does not report correct=false", line)
			}
		})
	}
}

func TestRunRefusesDebugEnvironment(t *testing.T) {
	for _, v := range []string{"VLT_NOSKIP", "VLT_AUDIT"} {
		t.Run(v, func(t *testing.T) {
			t.Setenv(v, "1")
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", "grid", "--seconds", "1", "--dir", t.TempDir()}, &stdout, &stderr)
			if code == 0 || stdout.Len() != 0 {
				t.Fatalf("exit %d, stdout %q: want a failure and no result", code, stdout.String())
			}
		})
	}
}

func TestHeldoutSeedDiffers(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(0); s < 100; s++ {
		h := heldoutSeed(s)
		if h == s || seen[h] {
			t.Fatalf("held-out seed of %d is %d: not a distinct partner", s, h)
		}
		seen[h] = true
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[2] != 30 || self[3] != 30 {
		t.Errorf("self times %v, want op 50, a 30, b 30", self)
	}
}

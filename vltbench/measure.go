package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"vlt/internal/runner"
)

// percentile returns the p-th percentile (0-100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time, so server
// goroutines, the GC and the harness's own checks all count.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOf runs fn and returns the process CPU time it used. The simulator
// workloads time their single-worker ops this way: an op is pure
// computation, and CPU time leaves out the stretches in which the host
// did not run the process at all (steal), which on a shared VM made
// wall-clock figures of identical work differ by a third between runs.
func cpuOf(fn func()) time.Duration {
	c := cpuTime()
	fn()
	return cpuTime() - c
}

// sampleHeap runs work while sampling the live heap (bytes marked live
// by the last GC) every 10ms, and returns the samples' 90th percentile
// in MiB.
func sampleHeap(work func()) float64 {
	stop := make(chan struct{})
	var samples []float64
	runner.Parallel(
		func() error {
			defer close(stop)
			work()
			return nil
		},
		func() error {
			s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return nil
				case <-t.C:
					metrics.Read(s)
					if s[0].Value.Kind() == metrics.KindUint64 {
						samples = append(samples, float64(s[0].Value.Uint64()))
					}
				}
			}
		})
	return percentile(samples, 90) / (1 << 20)
}

// window measures process CPU, allocation and GC counts between start
// and finish.
type window struct {
	start   time.Time
	cpu     time.Duration
	mem     runtime.MemStats
	elapsed time.Duration
	cpuUsed time.Duration
	allocs  uint64 // bytes allocated
	gcs     uint32
}

func startWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.cpu = cpuTime()
	w.start = time.Now()
	return w
}

func (w *window) finish() {
	w.elapsed = time.Since(w.start)
	w.cpuUsed = cpuTime() - w.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.allocs = m.TotalAlloc - w.mem.TotalAlloc
	w.gcs = m.NumGC - w.mem.NumGC
}

// traceSteps runs step with tracing off and on in turn until d has
// elapsed and each side has run at least twice, so the traced and
// untraced figures sample the same stretch of host time. It returns the
// allocation and GC totals of the untraced steps.
func traceSteps(t *tracer, d time.Duration, step func(traced bool)) (allocs uint64, gcs uint32) {
	start := time.Now()
	for n := 0; n < 4 || time.Since(start) < d; n++ {
		traced := n%2 == 1
		t.on.Store(traced)
		if traced {
			step(true)
			continue
		}
		w := startWindow()
		step(false)
		w.finish()
		allocs += w.allocs
		gcs += w.gcs
	}
	t.on.Store(false)
	return allocs, gcs
}

// setMemPerOp records the per-layer allocation and GC rates.
func (r *result) setMemPerOp(allocs uint64, gcs uint32, ops int) {
	if ops == 0 {
		return
	}
	r.set("alloc_kb_per_op", "KiB", float64(allocs)/1024/float64(ops))
	r.set("gc_per_op", "count", float64(gcs)/float64(ops))
}

// setOverhead records the traced p50 over the untraced p50, minus one.
func (r *result) setOverhead(untraced, traced []float64) {
	if u := median(untraced); u > 0 {
		r.set("trace.overhead_pct", "%", 100*(median(traced)/u-1))
	}
}

// environment records what the figures were measured on.
func environment(cfg config, heldout bool) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"heldout":    heldout,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit(),
		"store_fs":   fsType(cfg.dir),
		"audit":      "off",
	}
}

// commit names the source revision when the tree is a git checkout.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir, so a disk-tier figure says
// whether it measured memory or a real disk.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// reservoirCap bounds the samples kept per population, so the
// harness's own memory does not grow with throughput: heap_p90_mb would
// otherwise charge a faster server for the harness's longer lists. Each
// population's buffer is allocated whole on its first sample; past the
// cap, samples are kept by reservoir sampling.
const reservoirCap = 1 << 15

// latencies collects op latencies in milliseconds by population.
type latencies struct {
	mu  sync.Mutex
	by  map[string][]float64
	n   map[string]int // samples offered, kept or not
	rng *rand.Rand
}

func newLatencies() *latencies {
	return &latencies{by: map[string][]float64{}, n: map[string]int{}, rng: rand.New(rand.NewSource(1))}
}

func (l *latencies) add(pop string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n[pop]++
	xs, ok := l.by[pop]
	if !ok {
		xs = make([]float64, 0, reservoirCap)
	}
	if len(xs) < reservoirCap {
		l.by[pop] = append(xs, ms(d))
		return
	}
	if i := l.rng.Intn(l.n[pop]); i < reservoirCap {
		xs[i] = ms(d)
	}
}

// get returns the samples kept for the union of the named populations.
func (l *latencies) get(pops ...string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, p := range pops {
		out = append(out, l.by[p]...)
	}
	return out
}

// count returns how many samples the named populations were offered.
func (l *latencies) count(pops ...string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, p := range pops {
		n += l.n[p]
	}
	return n
}

// counts reports each population's size, for the result record.
func (l *latencies) counts() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]int{}
	for p, n := range l.n {
		out[p] = n
	}
	return out
}

// timeSetup runs setup reps times, records the process CPU time of
// each in the result record, and returns their median in seconds.
func timeSetup(res *result, reps int, setup func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		var err error
		d := cpuOf(func() { err = setup() })
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	res.extra["setup_reps_s"] = ds
	return median(ds), nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vlt"
	"vlt/internal/api"
	"vlt/internal/fleet"
	"vlt/internal/runner"
	"vlt/internal/serve"
	"vlt/internal/store"
	"vlt/internal/vltclient"
	"vlt/internal/workloads"
)

// The serve workload is a warm three-node fleet on loopback, wired the
// way cmd/vltd wires -peers: each node lists the others in a shared
// order, keeps its own store, and consults its store before
// re-simulating a peer's cell. Its memory tier is smaller than the warm
// key set, so requests hit both tiers. Two closed-loop clients enter at
// node 0 and each run a seeded sequence of warm-key requests (Zipf),
// conditional re-requests with a held ETag, a 48-cell sweep every
// sweepEvery ops, and a request for a never-seen key every fillEvery
// ops (the write path: vet, flight, simulate, render, fill both tiers).
//
// No recorded vltd traffic or documented client fixes the traffic mix:
// the ratios below are chosen values, each for the reason beside it
// (README.md, "Traffic mix").
const (
	serveNodes   = 3 // the fleet of OPERATIONS.md, "Worked example: one node to three"
	serveClients = 2 // one closed-loop client per vCPU of the reference machine
	// serveCacheBytes is per node. The 192 warm keys render to about 4x
	// this, so most warm requests reach the disk tier.
	serveCacheBytes = 192 << 10
	serveStoreBytes = 256 << 20
	// sweepEvery and fillEvery keep sweeps (about 10 ms of node CPU each)
	// and new-key simulations (about 20 ms each) to a few percent of host
	// time, so the warm requests' percentiles stay inside the warm
	// population, while a 30-second run still holds hundreds of sweeps
	// and about 180 new keys, a quarter of newKeyPool.
	sweepEvery = 1000
	fillEvery  = 2000
	// conditionalShare makes 304s a population of their own, not a
	// sliver, while full-body requests stay the majority.
	conditionalShare = 0.25
	// zipfS skews the warm keys so a hot head fits the memory tier and
	// the long tail is served from disk (the two tiers of OPERATIONS.md,
	// "Cache tiers").
	zipfS       = 1.1
	serveWindow = time.Second // traced runs alternate windows this long
)

// warmVariants are the option sets the warm key set repeats the 48-cell
// vector grid under; the first is the grid the run's sweeps request.
var warmVariants = []struct {
	lanes      int
	skipVerify bool
}{{0, false}, {0, true}, {16, false}, {4, false}}

// vectorGrid returns the vector workloads and the machines that have a
// vector unit: the 48-cell grid.
func vectorGrid() (names, machines []string) {
	for _, w := range workloads.All() {
		if w.Class != workloads.ScalarParallel {
			names = append(names, w.Name)
		}
	}
	for _, m := range vlt.Machines() {
		if !scalarOnly(m) {
			machines = append(machines, string(m))
		}
	}
	return names, machines
}

// newKeyPool lists cells no warm variant covers: every vector cell at
// lane counts the machine's thread count divides, at scales 1 and 2,
// with and without verification. It holds several times the new-key
// requests a run makes. The order is stratified: each class of
// (workload, scale, verification) is shuffled by the seed, and the pool
// takes one entry of every class in turn, so any prefix a run consumes
// holds the same mix of simulation costs whatever the seed.
func newKeyPool(rng *rand.Rand) []api.RunRequest {
	names, machines := vectorGrid()
	var classes [][]api.RunRequest
	for _, w := range names {
		for scale := 1; scale <= 2; scale++ {
			for _, sv := range []bool{false, true} {
				var class []api.RunRequest
				for _, m := range machines {
					threads := 1
					switch {
					case strings.HasPrefix(m, "V2"):
						threads = 2
					case strings.HasPrefix(m, "V4"):
						threads = 4
					}
					for lanes := 1; lanes <= 16; lanes++ {
						if lanes%threads != 0 || lanes == 4 || lanes == 8 || lanes == 16 {
							continue
						}
						class = append(class, api.RunRequest{Workload: w, Machine: m,
							Scale: scale, Lanes: lanes, SkipVerify: sv})
					}
				}
				rng.Shuffle(len(class), func(i, j int) { class[i], class[j] = class[j], class[i] })
				classes = append(classes, class)
			}
		}
	}
	var pool []api.RunRequest
	for i := 0; i < len(classes[0]); i++ {
		for _, class := range classes {
			pool = append(pool, class[i])
		}
	}
	return pool
}

// node is one in-process vltd.
type node struct {
	hs  *http.Server
	ln  net.Listener
	url string
}

// cluster is the three-node fleet plus its shared tracer.
type cluster struct {
	nodes     []*node
	coord     *fleet.Coordinator // node 0's, for its shard map
	tracer    *tracer
	transport *http.Transport // the peers' fleet hops
	// peer carries the fleet hops between nodes: it propagates spans
	// when tracing, and a seeded fault can fail one hop.
	peer *spanTransport
}

// withCluster boots the fleet with fresh stores under dir, runs fn
// against it, and shuts every node down; it returns once every server
// has stopped.
func withCluster(dir string, tr *tracer, fn func(*cluster) error) error {
	c, err := newCluster(dir, tr)
	if err != nil {
		return err
	}
	var fnErr error
	fns := []func() error{func() error {
		defer c.shutdown()
		fnErr = fn(c)
		return nil
	}}
	for _, n := range c.nodes {
		fns = append(fns, func() error {
			if err := n.hs.Serve(n.ln); !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			return nil
		})
	}
	errs := runner.Parallel(fns...)
	return errors.Join(append(errs, fnErr)...)
}

// newCluster listens on three loopback ports and builds a node on each,
// every node listing the others as its peers.
func newCluster(dir string, tr *tracer) (*cluster, error) {
	c := &cluster{tracer: tr, transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	c.peer = &spanTransport{base: c.transport}
	var lns []net.Listener
	closeAll := func() {
		for _, l := range lns {
			l.Close()
		}
	}
	for i := 0; i < serveNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		lns = append(lns, ln)
	}
	for i, ln := range lns {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("node%d", i)), serveStoreBytes)
		if err != nil {
			closeAll()
			return nil, err
		}
		srv := serve.New(serve.Config{CacheBytes: serveCacheBytes, Store: st})
		var peers []string
		for j, l := range lns {
			if j != i {
				peers = append(peers, "http://"+l.Addr().String())
			}
		}
		coord := fleet.New(fleet.Config{
			Peers:    peers,
			Registry: srv.Registry().Scope("fleet"),
			Disk:     st.Get,
			Client:   vltclient.Config{HTTPClient: &http.Client{Transport: c.peer}},
		})
		if i == 0 {
			c.coord = coord
		}
		handler := srv.Handler()
		if tr != nil {
			srv.SetFleet(tracedFleet{coord: coord, tracer: tr})
			handler = tracedHandler(tr, handler, i)
		} else {
			srv.SetFleet(coord)
		}
		c.nodes = append(c.nodes, &node{hs: &http.Server{Handler: handler}, ln: ln,
			url: "http://" + ln.Addr().String()})
	}
	return c, nil
}

// shutdown stops every node; their Serve calls then return.
func (c *cluster) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range c.nodes {
		n.hs.Shutdown(ctx)
	}
	c.transport.CloseIdleConnections()
}

// metrics reads every node's /metricsz and sums each counter over the
// nodes; per-peer client counters are summed into fleet.peer.<name>.
func (c *cluster) metrics() (map[string]float64, error) {
	out := map[string]float64{}
	for _, n := range c.nodes {
		m, err := readMetricsz(n.url)
		if err != nil {
			return nil, err
		}
		for name, v := range m {
			out[peerScope.ReplaceAllString(name, "fleet.peer.")] += v
		}
	}
	return out, nil
}

var peerScope = regexp.MustCompile(`^fleet\.peer\d+\.`)

// spanTransport propagates the request context's span as a header and
// records the X-VLT-Cache tier of the last response.
type spanTransport struct {
	base http.RoundTripper
	tier atomic.Value // string
	// failOnce, when set, fails the next round trip (a seeded transport
	// fault for the retry checks).
	failOnce atomic.Bool
	// force304, when set, turns the next response into a bodyless 304
	// that keeps its ETag (a seeded server fault for the 304 check).
	force304 atomic.Bool
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.failOnce.CompareAndSwap(true, false) {
		return nil, errors.New("injected transport fault")
	}
	if r := spanFrom(req.Context()); r.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, r.header())
	}
	resp, err := t.base.RoundTrip(req)
	if resp != nil {
		t.tier.Store(resp.Header.Get("X-VLT-Cache"))
		if t.force304.CompareAndSwap(true, false) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			resp.StatusCode, resp.Status = http.StatusNotModified, "304 Not Modified"
			resp.Body, resp.ContentLength = http.NoBody, 0
		}
	}
	return resp, err
}

func (t *spanTransport) lastTier() string {
	s, _ := t.tier.Load().(string)
	return s
}

// tracedHandler wraps a node's handler in a span joined to the caller's
// trace through spanHeader.
func tracedHandler(tr *tracer, h http.Handler, nodeIndex int) http.Handler {
	name := "serve.handler"
	if nodeIndex > 0 {
		name = "serve.handler.peer"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		parent := parseSpanHeader(r.Header.Get(spanHeader))
		tr.timed(name, parent, func(sp ref) {
			h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
		})
	})
}

// tracedFleet wraps the serve.Fleet seam, timing each cell's
// computation split by whether this node owns it.
type tracedFleet struct {
	coord  *fleet.Coordinator
	tracer *tracer
}

func (f tracedFleet) Compute(ctx context.Context, key string, req api.RunRequest, local func() ([]byte, error)) ([]byte, error) {
	if !f.tracer.enabled() {
		return f.coord.Compute(ctx, key, req, local)
	}
	name := "fleet.compute.remote"
	if f.coord.Owner(key) == 0 {
		name = "fleet.compute.local"
	}
	var body []byte
	var err error
	f.tracer.timed(name, spanFrom(ctx), func(sp ref) {
		body, err = f.coord.Compute(withSpan(ctx, sp), key, req, local)
	})
	return body, err
}

// serveRun is one serve workload run in progress.
type serveRun struct {
	cfg     config
	res     *result
	cluster *cluster
	tracer  *tracer
	refs    map[string][]byte // cell key -> the first body seen for it
	warm    []api.RunRequest  // the warm key set, in Zipf rank order
	sweep   api.SweepRequest
	pool    []api.RunRequest
	windows int          // drive calls so far; seeds each window's clients
	next    atomic.Int64 // next unused pool entry
	ops     atomic.Int64
	fired   atomic.Bool // the seeded fault has fired

	mu    sync.Mutex
	lat   *latencies
	tiers *latencies // traced: warm and fill latency by serving tier
	// fillRates holds each new-key request's simulated kilocycles per
	// second of its request time.
	fillRates []float64
	fills     int
	all       int
}

func runServe(cfg config) (*result, error) {
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	s := &serveRun{cfg: cfg, res: res, tracer: tr, lat: newLatencies(), tiers: newLatencies()}
	names, machines := vectorGrid()
	s.sweep = api.SweepRequest{Workloads: names, Machines: machines}
	var setups []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		last := rep == cfg.setupReps-1
		dir := filepath.Join(cfg.dir, fmt.Sprintf("stores%d", rep))
		if tr != nil {
			tr.on.Store(last) // the fleet's hops happen in the last fill
		}
		runtime.GC()
		start := time.Now()
		err := withCluster(dir, tr, func(c *cluster) error {
			if err := s.fill(c); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
			if !last {
				return nil
			}
			res.extra["setup_reps_s"] = setups
			return s.measure(median(setups))
		})
		if err != nil {
			return nil, err
		}
		if !last {
			os.RemoveAll(dir)
		}
	}
	return res, nil
}

// measure drives the warm fleet for the run and records the metrics.
func (s *serveRun) measure(setupS float64) error {
	rng := rand.New(rand.NewSource(s.cfg.seed))
	rng.Shuffle(len(s.warm), func(i, j int) { s.warm[i], s.warm[j] = s.warm[j], s.warm[i] })
	s.pool = newKeyPool(rng)

	if !s.cfg.trace {
		before, err := s.cluster.metrics()
		if err != nil {
			return err
		}
		w := startWindow()
		heapMB := sampleHeap(func() { s.drive(s.cfg.seconds) })
		w.finish()
		after, err := s.cluster.metrics()
		if err != nil {
			return err
		}
		s.checkCounters(before, after)
		warm := s.lat.get("warm")
		s.res.set("setup_s", "s", setupS)
		s.res.set("p50_ms", "ms", median(warm))
		s.res.set("p90_ms", "ms", percentile(warm, 90))
		s.res.set("p99_ms", "ms", percentile(warm, 99))
		s.res.set("fill_p50_ms", "ms", median(s.lat.get("fill")))
		s.res.set("sweep_p50_ms", "ms", median(s.lat.get("sweep")))
		s.res.set("ops_per_s", "1/s", float64(s.all)/w.elapsed.Seconds())
		s.mu.Lock()
		s.res.set("sim_kcycles_per_s", "kcycles/s", median(s.fillRates))
		s.mu.Unlock()
		s.res.set("cpu_ms_per_op", "ms", ms(w.cpuUsed)/float64(s.all))
		s.res.set("heap_p90_mb", "MiB", heapMB)
		s.res.extra["populations"] = s.lat.counts()
		return nil
	}

	// Traced run: untraced windows alternate with traced windows, under
	// one CPU profile.
	setLayerDefaults(s.res)
	s.tracer.on.Store(false)
	before, err := s.cluster.metrics()
	if err != nil {
		return err
	}
	prof, err := startProfile()
	if err != nil {
		return err
	}
	untraced, traced := newLatencies(), newLatencies()
	untracedOps := 0
	allocs, gcs := traceSteps(s.tracer, s.cfg.seconds, func(on bool) {
		s.lat = untraced
		if on {
			s.lat = traced
		}
		all := s.all
		s.drive(serveWindow)
		if !on {
			untracedOps += s.all - all
		}
	})
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	s.res.setMemPerOp(allocs, gcs, untracedOps)
	fills, ops := s.fills, s.all
	after, err := s.cluster.metrics()
	if err != nil {
		return err
	}
	s.checkCounters(before, after)
	spans, err := finishTrace(s.tracer, s.cfg, s.res)
	if err != nil {
		return err
	}
	for _, tier := range []string{"memory", "disk", "not_modified", "miss"} {
		s.res.set("serve.tier_ms."+tier, "ms", median(s.tiers.get(tier)))
	}
	byID := map[uint64]span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var handler, transport []float64
	for _, sp := range spans {
		if p, ok := byID[sp.Parent]; ok && sp.Name == "serve.handler" && p.Name == "serve.op.warm" {
			handler = append(handler, ms(sp.dur()))
			transport = append(transport, ms(p.dur()-sp.dur()))
		}
	}
	s.res.set("serve.handler_ms", "ms", median(handler))
	s.res.set("vltclient.transport_ms", "ms", median(transport))
	s.res.set("fleet.compute_ms.local", "ms", median(durations(spans, "fleet.compute.local")))
	s.res.set("fleet.compute_ms.remote", "ms", median(durations(spans, "fleet.compute.remote")))

	d := func(name string) float64 { return after[name] - before[name] }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	s.res.set("serve.cache.hit_ratio", "ratio", ratio(d("serve.cache.hits"), d("serve.cache.misses")))
	s.res.set("serve.cache.evictions_per_op", "count", d("serve.cache.evictions")/float64(ops))
	s.res.set("serve.store.hit_ratio", "ratio", ratio(d("serve.store.hits"), d("serve.store.misses")))
	if fills > 0 {
		s.res.set("serve.store.writes_per_fill", "count", d("serve.store.writes")/float64(fills))
		s.res.set("serve.flight.executed_per_fill", "count", d("serve.flight.executed")/float64(fills))
	}
	s.res.set("serve.flight.rejected", "count", d("serve.flight.rejected"))
	s.res.set("fleet.remote_share", "ratio", ratio(after["fleet.remote"],
		after["fleet.local"]+after["fleet.fallback"]+after["fleet.disk"]))
	s.res.set("fleet.fallback", "count", after["fleet.fallback"])
	s.res.set("vltclient.retries", "count", after["fleet.peer.retries"])
	s.res.setCPUShares(shares)
	s.res.setOverhead(untraced.get("warm"), traced.get("warm"))
	return nil
}

// faultCounters are the /metricsz counters, summed over the nodes, that
// move only when a request fails, a fleet hop is retried, or a cell
// takes a degraded route. The fleet's hops go through its own vltclient,
// so their retries never reach the entry clients' counts.
var faultCounters = []string{
	"serve.http.failures",
	"fleet.peer.retries", "fleet.peer.failures",
	"fleet.peer.breaker.trips", "fleet.peer.breaker.rejects",
	"fleet.fallback", "fleet.disk",
}

// checkCounters counts every rise of a fault counter over the measured
// window as a failed op.
func (s *serveRun) checkCounters(before, after map[string]float64) {
	for _, name := range faultCounters {
		d := int(after[name] - before[name])
		for i := 0; i < d; i++ {
			s.res.fail("%s rose by %d over the measured window", name, d)
		}
	}
}

// fill fills a fresh fleet's warm key set through the fleet: one sweep
// per warm variant, entered at node 0, so every cell lands in node 0's
// tiers and in its owner's.
func (s *serveRun) fill(c *cluster) error {
	var err error
	s.cluster = c
	s.refs = map[string][]byte{}
	s.warm = nil
	cl := vltclient.New(vltclient.Config{BaseURL: c.nodes[0].url, HTTPClient: &http.Client{Transport: &spanTransport{base: c.transport}}})
	for _, v := range warmVariants {
		req := s.sweep
		req.Lanes, req.SkipVerify = v.lanes, v.skipVerify
		cells := req.Cells()
		var trailer api.SweepTrailer
		s.tracer.timed("serve.setup.sweep", ref{}, func(op ref) {
			trailer, err = cl.Sweep(withSpan(context.Background(), op), req, func(cell api.SweepCell) error {
				if cell.Error != nil {
					return cell.Error
				}
				key, err := cellKey(cells[cell.Index])
				if err != nil {
					return err
				}
				s.refs[key] = append(append([]byte(nil), cell.Result...), '\n')
				s.warm = append(s.warm, cells[cell.Index])
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("set-up: filling the warm set: %w", err)
		}
		if !trailer.Done || trailer.Cells != len(cells) || trailer.Errors != 0 {
			return fmt.Errorf("set-up: warm sweep trailer %+v, want %d cells and no errors", trailer, len(cells))
		}
	}
	return nil
}

func cellKey(r api.RunRequest) (string, error) {
	return vlt.CellKey(r.Workload, vlt.Machine(r.Machine), r.Options())
}

// drive runs the closed-loop clients for d.
func (s *serveRun) drive(d time.Duration) {
	deadline := time.Now().Add(d)
	seed := s.cfg.seed*7919 + int64(s.windows*serveClients)
	s.windows++
	clients := make([]func() error, serveClients)
	for i := range clients {
		clients[i] = func() error {
			s.client(i, seed+int64(i), deadline)
			return nil
		}
	}
	for _, err := range runner.Parallel(clients...) {
		if err != nil {
			s.mu.Lock()
			s.res.fail("client: %v", err)
			s.mu.Unlock()
		}
	}
}

// client is one closed-loop client: it sends its next request only when
// the previous one has completed.
func (s *serveRun) client(id int, seed int64, deadline time.Time) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(s.warm)-1))
	tp := &http.Transport{MaxIdleConnsPerHost: 4}
	defer tp.CloseIdleConnections()
	st := &spanTransport{base: tp}
	cl := vltclient.New(vltclient.Config{BaseURL: s.cluster.nodes[0].url,
		HTTPClient: &http.Client{Transport: st}, Seed: int64(id) + 1})
	held := map[string]string{} // cell key -> ETag this client received
	// Offsetting the clients' schedules keeps their sweeps apart.
	offset := id * sweepEvery / serveClients
	for i := 0; time.Now().Before(deadline); i++ {
		retries := cl.Retries()
		k := i + offset
		var pop string
		var d time.Duration
		var err error
		switch {
		case s.faultAt("peer"):
			pop = "fill"
			d, err = s.peerFaultOp(cl)
		case k%sweepEvery == sweepEvery-1:
			pop = "sweep"
			d, err = s.sweepOp(cl)
		case k%fillEvery == fillEvery/2:
			pop = "fill"
			d, err = s.fillOp(cl, st)
		default:
			pop = "warm"
			req := s.warm[zipf.Uint64()]
			d, err = s.warmOp(cl, st, req, held, rng.Float64() < conditionalShare)
		}
		s.ops.Add(1)
		if err == nil && cl.Retries() != retries {
			err = fmt.Errorf("client retried %d times", cl.Retries()-retries)
		}
		if err == nil && s.faultAt("retry") {
			st.failOnce.Store(true)
		}
		s.mu.Lock()
		s.res.attempted++
		s.all++
		if err != nil {
			s.res.fail("%s: %v", pop, err)
		} else {
			s.lat.add(pop, d)
		}
		s.mu.Unlock()
	}
}

// faultAt reports whether the seeded fault of kind fires now: once, on
// the first chance after the configured number of ops.
func (s *serveRun) faultAt(kind string) bool {
	f := s.cfg.fault
	return f != nil && f.kind == kind && s.ops.Load() >= int64(f.after) && s.fired.CompareAndSwap(false, true)
}

// warmOp requests one warm key, conditionally when asked and an ETag is
// held. Its body must match the first body seen for the key; a 304 must
// answer a held ETag.
func (s *serveRun) warmOp(cl *vltclient.Client, st *spanTransport, req api.RunRequest, held map[string]string, conditional bool) (time.Duration, error) {
	key, err := cellKey(req)
	if err != nil {
		return 0, err
	}
	tag := ""
	if conditional {
		tag = held[key]
	}
	if s.faultAt("etag") {
		tag = store.ETag(key) // a tag this client was never sent
		delete(held, key)
	}
	if !conditional && held[key] != "" && s.faultAt("notmodified") {
		st.force304.Store(true) // a 304 for a request that sent no tag
	}
	var body []byte
	var newTag string
	var notModified bool
	d := s.tracer.timed("serve.op.warm", ref{}, func(op ref) {
		body, newTag, notModified, err = cl.RunConditional(withSpan(context.Background(), op), req, tag)
	})
	if err != nil {
		return d, err
	}
	if notModified {
		if tag == "" || tag != held[key] || newTag != tag {
			return d, fmt.Errorf("%s: 304 for ETag %q, holding %q", req.Cell(), tag, held[key])
		}
		s.tier("not_modified", d)
		return d, nil
	}
	if s.faultAt("body") {
		body = append([]byte(nil), body...)
		body[len(body)/2] ^= 1
	}
	if !bytes.Equal(body, s.refs[key]) {
		return d, fmt.Errorf("%s: body differs from the first body seen for the key (tier %q)", req.Cell(), st.lastTier())
	}
	held[key] = newTag
	s.tier(tierName(st.lastTier()), d)
	return d, nil
}

// fillOp requests a key never requested before in the run.
func (s *serveRun) fillOp(cl *vltclient.Client, st *spanTransport) (time.Duration, error) {
	i := s.next.Add(1) - 1
	if int(i) >= len(s.pool) {
		return 0, errors.New("new-key pool exhausted")
	}
	req := s.pool[i]
	var body []byte
	var err error
	d := s.tracer.timed("serve.op.fill", ref{}, func(op ref) {
		body, _, _, err = cl.RunConditional(withSpan(context.Background(), op), req, "")
	})
	if err != nil {
		return d, err
	}
	var r api.RunResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return d, fmt.Errorf("%s: bad body: %w", req.Cell(), err)
	}
	if r.Workload != req.Workload || r.Machine != req.Machine || r.Cycles == 0 || r.Verified == req.SkipVerify {
		return d, fmt.Errorf("%s: body is for %s/%s, %d cycles, verified=%t", req.Cell(), r.Workload, r.Machine, r.Cycles, r.Verified)
	}
	s.tier(tierName(st.lastTier()), d)
	s.mu.Lock()
	s.fills++
	s.fillRates = append(s.fillRates, float64(r.Cycles)/1e3/d.Seconds())
	s.mu.Unlock()
	return d, nil
}

// peerFaultOp is the seeded fleet-hop fault: it sweeps one never-seen
// cell that node 0 must fetch from its owner, with that hop set to fail
// once. The fleet retries or degrades and the sweep still succeeds, so
// only the fault-counter check can see it.
func (s *serveRun) peerFaultOp(cl *vltclient.Client) (time.Duration, error) {
	for {
		i := s.next.Add(1) - 1
		if int(i) >= len(s.pool) {
			return 0, errors.New("new-key pool exhausted")
		}
		r := s.pool[i]
		req := api.SweepRequest{Workloads: []string{r.Workload}, Machines: []string{r.Machine},
			Scales: []int{r.Scale}, Lanes: r.Lanes, SkipVerify: r.SkipVerify}
		key, err := cellKey(req.Cells()[0])
		if err != nil {
			return 0, err
		}
		if s.cluster.coord.Owner(key) == 0 {
			continue
		}
		s.cluster.peer.failOnce.Store(true)
		start := time.Now()
		trailer, err := cl.Sweep(context.Background(), req, func(c api.SweepCell) error {
			if c.Error != nil {
				return c.Error
			}
			return nil
		})
		if err == nil && (!trailer.Done || trailer.Cells != 1 || trailer.Errors != 0) {
			err = fmt.Errorf("one-cell sweep trailer %+v", trailer)
		}
		return time.Since(start), err
	}
}

// sweepOp streams the 48-cell grid; every cell must match its warm body
// and the trailer must close the stream with 48 cells and no errors.
func (s *serveRun) sweepOp(cl *vltclient.Client) (time.Duration, error) {
	cells := s.sweep.Cells()
	var trailer api.SweepTrailer
	var err error
	d := s.tracer.timed("serve.op.sweep", ref{}, func(op ref) {
		trailer, err = cl.Sweep(withSpan(context.Background(), op), s.sweep, func(c api.SweepCell) error {
			if c.Error != nil {
				return c.Error
			}
			if c.Index < 0 || c.Index >= len(cells) {
				return fmt.Errorf("sweep line index %d out of range", c.Index)
			}
			key, err := cellKey(cells[c.Index])
			if err != nil {
				return err
			}
			if !bytes.Equal(append(append([]byte(nil), c.Result...), '\n'), s.refs[key]) {
				return fmt.Errorf("sweep cell %s differs from its warm body", cells[c.Index].Cell())
			}
			return nil
		})
	})
	if err != nil {
		return d, err
	}
	if s.faultAt("trailer") {
		trailer.Cells--
	}
	if !trailer.Done || trailer.Cells != len(cells) || trailer.Errors != 0 {
		return d, fmt.Errorf("sweep trailer %+v, want done with %d cells and no errors", trailer, len(cells))
	}
	return d, nil
}

func (s *serveRun) tier(name string, d time.Duration) {
	if s.tracer.enabled() {
		s.tiers.add(name, d)
	}
}

// tierName maps X-VLT-Cache values to metric names.
func tierName(h string) string {
	switch h {
	case "hit":
		return "memory"
	case "disk":
		return "disk"
	case "miss":
		return "miss"
	}
	return "unknown:" + h
}

// readMetricsz parses a node's /metricsz text ("name value" lines).
func readMetricsz(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

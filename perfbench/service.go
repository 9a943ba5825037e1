package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amr"
	"repro/internal/sim"
	"repro/internal/sim/diskstore"
)

const (
	// sweepRate sizes the sweep at round(--seconds × sweepRate)
	// submissions: about --seconds of work on a 2-core host, fixed by the
	// arguments alone, so the same arguments always do the same work.
	sweepRate = 110
	// diskJobs is how many executed configurations are persisted to the
	// disk store that the restarts recover.
	diskJobs = 150
	// clients is the closed-loop client count: each sends its next
	// submission only after reading everything of the previous one.
	clients = 2
	// restarts is how many identical restarts setup_s is the median of.
	restarts = 11
)

// spanHeader carries the client span ID to the server-side middleware,
// so a server span is the child of the client call that caused it.
const spanHeader = "X-Bench-Span"

// route classifies a request path into the reported HTTP routes.
func route(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case method == http.MethodPost && path == "/jobs":
		return "submit"
	case len(parts) == 3 && parts[2] == "events":
		return "events"
	case len(parts) == 3 && parts[2] == "result":
		return "result"
	case len(parts) == 3 && parts[2] == "artifacts":
		return "index"
	case len(parts) == 4 && parts[2] == "artifacts":
		return "artifact"
	}
	return "other"
}

var httpRoutes = []string{"submit", "events", "result", "index", "artifact"}

// serverSpans records every request handled by h as an http.<route> span
// in the job's trace, parented to the client span named by spanHeader.
func serverSpans(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		job := ""
		if parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/"); len(parts) > 1 {
			job = parts[1]
		}
		sp := tr.start("http."+route(r.Method, r.URL.Path), job, parent)
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// server is the scheduler's handler on a loopback listener.
type server struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
}

// client is one closed-loop service client.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

// call makes one request inside a client.<routeName> span under parent
// and returns the response headers and whole body; a status of 300 or
// above is an error.
func (c *client) call(method, path string, body []byte, routeName, trace string, parent *openSpan) (http.Header, []byte, error) {
	sp := c.tr.start("client."+routeName, trace, parent.id())
	defer sp.end()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if id := sp.id(); id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode >= 300 {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return resp.Header, data, err
}

// getJSON GETs path and decodes the body into v.
func (c *client) getJSON(path, routeName, trace string, parent *openSpan, v any) error {
	_, data, err := c.call(http.MethodGet, path, nil, routeName, trace, parent)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// sweepLog collects what the clients observed. Safe for concurrent use.
type sweepLog struct {
	mu                        sync.Mutex
	runMS, hitMS, overheadMS  []float64
	readMS                    []float64
	evolveS, analysisS, flops []float64
	comp                      map[string]float64 // §5 component seconds summed over executed jobs
	stats                     amr.Stats          // work counts summed over executed jobs
	grids, maxLevel           []float64
	hits, coalesced           int
	configHash                map[int]string    // config -> result hash of its execution
	executed                  map[int]string    // config -> job ID
	artHash                   map[string]string // job/artifact -> content hash read live
}

// readArtifacts GETs the result, the artifact index and every artifact
// of job id, checking each body against its ETag and against want (the
// bytes read before, when want is non-nil). It returns the result, every
// read's latency and each artifact's content hash.
func (c *client) readArtifacts(id string, root *openSpan, tl *tally, want map[string]string) (sim.Result, []float64, map[string]string) {
	var lat []float64
	timed := func(f func() error) bool {
		t0 := time.Now()
		err := f()
		lat = append(lat, ms(time.Since(t0)))
		return tl.op(err)
	}
	var res sim.Result
	if !timed(func() error { return c.getJSON("/jobs/"+id+"/result", "result", id, root, &res) }) {
		return res, lat, nil
	}
	var idx sim.ArtifactIndex
	if !timed(func() error { return c.getJSON("/jobs/"+id+"/artifacts", "index", id, root, &idx) }) {
		return res, lat, nil
	}
	hashes := map[string]string{}
	for _, a := range idx.Artifacts {
		var body []byte
		var hdr http.Header
		if !timed(func() (err error) {
			hdr, body, err = c.call(http.MethodGet, "/jobs/"+id+"/artifacts/"+a.Name, nil, "artifact", id, root)
			return err
		}) {
			continue
		}
		sum := sha256.Sum256(body)
		got := hex.EncodeToString(sum[:])
		key := id + "/" + a.Name
		hashes[key] = got
		tl.check(`"`+got+`"` == hdr.Get("ETag") && got == a.Hash, "%s: body hashes to %s, ETag %s, index %s", key, got, hdr.Get("ETag"), a.Hash)
		if want != nil {
			tl.check(got == want[key], "%s: recovered body hashes to %s, live body to %s", key, got, want[key])
		}
	}
	return res, lat, hashes
}

// submit runs one sweep submission: POST, stream its events to the
// final status, then read everything it produced.
func (c *client) submit(it sweepItem, tl *tally, log *sweepLog) {
	root := c.tr.start("client.job", "", 0)
	defer root.end()
	body, err := json.Marshal(it.req)
	if !tl.op(err) {
		return
	}
	t0 := time.Now()
	_, data, err := c.call(http.MethodPost, "/jobs", body, "submit", "", root)
	var sub sim.SubmitResponse
	if err == nil {
		err = json.Unmarshal(data, &sub)
	}
	if !tl.op(err) {
		return
	}
	id := sub.ID
	root.setTrace(id)
	_, data, err = c.call(http.MethodGet, "/jobs/"+id+"/events", nil, "events", id, root)
	lat := ms(time.Since(t0))
	if !tl.op(err) {
		return
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var st sim.Status
	if !tl.op(json.Unmarshal(lines[len(lines)-1], &st)) {
		return
	}
	tl.check(st.State == "done", "job %s ended %s: %s", id, st.State, st.Error)

	res, reads, hashes := c.readArtifacts(id, root, tl, nil)

	log.mu.Lock()
	defer log.mu.Unlock()
	log.readMS = append(log.readMS, reads...)
	for k, v := range hashes {
		log.artHash[k] = v
	}
	if first, ok := log.configHash[it.config]; ok {
		tl.check(res.Hash == first, "config %d: submission got hash %s, its execution %s", it.config, res.Hash, first)
	} else {
		log.configHash[it.config] = res.Hash
	}
	switch sim.Disposition(sub.Disposition) {
	case sim.Scheduled:
		log.runMS = append(log.runMS, lat)
		log.overheadMS = append(log.overheadMS, lat-1000*st.WallSeconds)
		log.executed[it.config] = id
		m := res.Metrics
		log.evolveS = append(log.evolveS, m.WallSeconds)
		log.analysisS = append(log.analysisS, m.AnalysisSeconds)
		log.flops = append(log.flops, m.EstimatedFlops)
		for k, v := range m.ComponentSeconds {
			log.comp[k] += v
		}
		log.stats.CellUpdates += m.CellUpdates
		log.stats.ChemCellCalls += m.ChemCellCalls
		log.stats.ParticleKicks += m.ParticleKicks
		log.stats.GridsCreated += m.GridsCreated
		log.stats.RebuildCount += m.Rebuilds
		log.grids = append(log.grids, float64(res.NumGrids))
		log.maxLevel = append(log.maxLevel, float64(res.MaxLevel))
	case sim.CacheHit:
		log.hits++
		log.hitMS = append(log.hitMS, lat)
	case sim.Coalesced:
		log.coalesced++
	}
}

// runService runs the service workload in three phases.
//
//  1. The sweep: clients closed-loop clients drive the seeded sweep
//     through the scheduler's HTTP handler, on the memory store.
//  2. Untimed set-up: the first diskJobs executed configurations run
//     again on a disk store, each answer checked against the sweep's.
//  3. The scheduler restarts on that directory restarts times (setup_s),
//     then every persisted job's reads are replayed cold over HTTP.
//
// The timed sweep runs on the memory store because fsync latency on a
// VM disk drifts from minute to minute: with the disk store in the
// sweep, the same sweep took 8.5 to 20 s. The disk store's read paths
// (recovery, cold reads) are timed; its write paths show in the traced
// run's store metrics.
func runService(seed int64, seconds float64, tr *tracer, tl *tally) (map[string]float64, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}
	items := genSweep(seed, max(1, int(math.Round(seconds*sweepRate))))
	log := &sweepLog{comp: map[string]float64{}, configHash: map[int]string{}, executed: map[int]string{}, artHash: map[string]string{}}
	handler := func(s *sim.Scheduler) http.Handler {
		if tr == nil {
			return s.Handler()
		}
		return serverSpans(tr, s.Handler())
	}

	sched := sim.NewScheduler(schedConfig(sim.NewMemStore(), len(items)))
	srv, err := serve(handler(sched))
	if err != nil {
		sched.Close()
		return nil, err
	}
	c := &client{base: srv.base, hc: hc, tr: tr}
	var next atomic.Int64
	var wg sync.WaitGroup
	c0, t0 := cpuTime(), time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(items)); i = next.Add(1) - 1 {
				c.submit(items[i], tl, log)
			}
		}()
	}
	wg.Wait()
	sweep, sweepCPU := time.Since(t0), cpuTime()-c0
	heap := liveHeapMB()
	srv.stop()
	sched.Close()
	fmt.Printf("# sweep: %d submissions in %.2fs, %d executed, %d cache hits, %d coalesced\n",
		len(items), sweep.Seconds(), len(log.executed), log.hits, log.coalesced)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var stores []*timedStore
	open := func() (*sim.Scheduler, error) {
		ds, err := diskstore.New(dir)
		if err != nil {
			return nil, err
		}
		var st sim.Store = ds
		if tr != nil {
			ts := newTimedStore(ds, tr)
			stores = append(stores, ts)
			st = ts
		}
		s := sim.NewScheduler(schedConfig(st, len(items)))
		if _, _, err := s.RecoverState(); err != nil {
			s.Close()
			return nil, fmt.Errorf("recover: %w", err)
		}
		return s, nil
	}
	persisted := slices.Sorted(maps.Keys(log.executed))
	persisted = persisted[:min(len(persisted), diskJobs)]
	if sched, err = open(); err != nil {
		return nil, err
	}
	for _, cfg := range persisted {
		sp := tr.start("sim.fill", log.executed[cfg], 0)
		hash, err := runJob(sched, items, cfg)
		sp.end()
		if tl.op(err) {
			tl.check(hash == log.configHash[cfg], "config %d: disk-store run hash %s, sweep %s", cfg, hash, log.configHash[cfg])
		}
	}
	sched.Close()

	var setup []float64
	for i := range restarts {
		if i > 0 {
			sched.Close()
		}
		sp := tr.start("sim.restart", "", 0)
		t0 := time.Now()
		sched, err = open()
		d := time.Since(t0)
		sp.end()
		if !tl.op(err) {
			return nil, err
		}
		setup = append(setup, d.Seconds())
	}
	defer sched.Close()
	recovered, _, _ := sched.RecoverState()
	tl.check(int(recovered) == len(persisted), "restart recovered %d jobs, %d were persisted", recovered, len(persisted))
	if srv, err = serve(handler(sched)); !tl.op(err) {
		return nil, err
	}
	defer srv.stop()
	c.base = srv.base
	var coldMS []float64
	for _, cfg := range persisted {
		id := log.executed[cfg]
		root := tr.start("client.cold", id, 0)
		res, lat, _ := c.readArtifacts(id, root, tl, log.artHash)
		root.end()
		tl.check(res.Hash == log.configHash[cfg], "recovered job %s: hash %s, live %s", id, res.Hash, log.configHash[cfg])
		coldMS = append(coldMS, lat...)
	}

	execd := float64(len(log.evolveS))
	if execd == 0 {
		return nil, errors.New("the sweep executed no job")
	}
	m := map[string]float64{
		"setup_s":      median(setup),
		"peak_heap_mb": heap,
		"evolve_s":     median(log.evolveS),
		"jobs_per_s":   float64(len(items)) / sweep.Seconds(),
	}
	if err := putPercentiles(m, map[string]pct{
		"run_p50_ms":              {log.runMS, 0.5},
		"client.read_p50_ms":      {log.readMS, 0.5},
		"client.cold_read_p50_ms": {coldMS, 0.5},
		"tail.read_p90_ms":        {log.readMS, 0.9},
		"tail.run_p90_ms":         {log.runMS, 0.9},
		"sim.hit_p50_ms":          {log.hitMS, 0.5},
		"sim.overhead_p50_ms":     {log.overheadMS, 0.5},
	}); err != nil {
		return nil, err
	}
	m["sim.hit_ratio"] = float64(log.hits+log.coalesced) / float64(len(items))
	m["sim.evolve_s_per_job"] = sum(log.evolveS) / execd
	m["analysis.s_per_job"] = sum(log.analysisS) / execd
	m["par.cores_busy"] = sweepCPU.Seconds() / sweep.Seconds()
	m["perf.est_gflop_per_s"] = sum(log.flops) / sum(log.evolveS) / 1e9
	for row, name := range map[string]string{
		"boundary conditions": "amr.boundary_s", "hierarchy rebuild": "amr.rebuild_s", "other overhead": "amr.other_s",
		"hydrodynamics": "hydro.time_s", "Poisson solver": "gravity.time_s", "chemistry & cooling": "chem.time_s", "N-body": "nbody.time_s",
	} {
		m[name] = log.comp[row] / execd
	}
	putStats(m, log.stats, execd)
	m["amr.grids_final"] = sum(log.grids) / execd
	m["amr.max_level"] = slices.Max(log.maxLevel)
	if tr != nil {
		putStoreMetrics(m, stores)
	}
	return m, nil
}

// schedConfig is the service under test: one slot of one worker,
// checkpoints every 2 root steps (on a persistent store), and a cache
// large enough that no result of the sweep is evicted.
func schedConfig(st sim.Store, submissions int) sim.Config {
	return sim.Config{
		MaxConcurrent: 1, TotalWorkers: 1, Store: st, CheckpointEvery: 2,
		CacheSize: submissions + 1, QueueDepth: 4 * clients,
	}
}

// runJob runs configuration cfg of the sweep to completion through the
// scheduler's API and returns its result hash.
func runJob(s *sim.Scheduler, items []sweepItem, cfg int) (string, error) {
	i := slices.IndexFunc(items, func(it sweepItem) bool { return it.config == cfg })
	j, err := s.Submit(items[i].req)
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		return "", err
	}
	return res.Hash, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"

	"repro/internal/amr"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/problems"
	"repro/internal/snapshot"
)

// amrSpec is one engine workload: a registered problem at a fixed
// configuration, run for a fixed number of root steps per job.
type amrSpec struct {
	problem string
	rootN   int
	level   int
	steps   int
	// readN is the side of the slices read after each job: large enough
	// that a read takes over 10 ms.
	readN int
	// jobSeconds is the nominal wall time of one job on a 2-core host.
	// The job count is --seconds / jobSeconds, fixed by the arguments
	// alone, so the same arguments always do the same work.
	jobSeconds float64
	// knobs draws the seeded problem knobs.
	knobs func(rng *rand.Rand) map[string]float64
}

var amrSpecs = map[string]amrSpec{
	"sedov-amr": {
		problem: "sedov", rootN: 32, level: 1, steps: 40, readN: 128, jobSeconds: 12,
		knobs: func(rng *rand.Rand) map[string]float64 {
			return map[string]float64{"e0": 10 * jitter(rng)}
		},
	},
	"collapse-paper": {
		problem: "collapse", rootN: 16, level: 5, steps: 10, readN: 256, jobSeconds: 7,
		knobs: func(rng *rand.Rand) map[string]float64 {
			return map[string]float64{"delta": 40 * jitter(rng), "tinit": 800 * jitter(rng)}
		},
	},
}

// jitter is a seeded factor within 1 ± 1e-6: the inputs differ per
// seed while the hierarchy the run builds, and so its cost, does not.
// The collapse is a runaway: a ±1 % jitter moved its evolve time by 20 %
// and its live heap by 80 % between seeds.
func jitter(rng *rand.Rand) float64 { return 1 + 2e-6*(rng.Float64()-0.5) }

const (
	// setupBuilds is how many identical core.New builds setup_s is the
	// median of: one build takes milliseconds, so one sample is noise.
	setupBuilds = 51
	// readsPerJob slice products are evaluated on each job's final state,
	// and again on the state restored from its checkpoint bytes, by a
	// single reader (one worker): a two-worker read of ~10 ms waits for
	// the slower half, and its median moved by 9 % between batches of
	// the same reads where the one-worker median moved by 2.5 %.
	readsPerJob = 50
	// massTol bounds the relative change of total gas mass over a job:
	// the bound the registry smoke test holds every problem to.
	massTol = 1e-3
)

// readRequests draws the slice products a client reads from a finished
// run: side² density slices across z, the i-th plane drawn within the
// i-th of n equal strata of the box. Every seed reads different planes
// with the same mix of cost; one field and one axis keep that cost
// unimodal.
func readRequests(rng *rand.Rand, n, side int) ([]analysis.OutputRequest, error) {
	out := make([]analysis.OutputRequest, n)
	for i := range out {
		r, err := analysis.OutputRequest{
			Kind:  analysis.KindSlice,
			Field: "rho",
			Axis:  2,
			Coord: (float64(i) + rng.Float64()) / float64(n),
			N:     side,
		}.Normalize()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB
// (10^6 bytes). Callers keep it outside timed windows.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// hasNaN reports whether any hydro field of any grid holds a NaN.
func hasNaN(h *amr.Hierarchy) bool {
	for _, lv := range h.Levels {
		for _, g := range lv {
			for _, f := range g.State.Fields() {
				for _, v := range f.Data {
					if math.IsNaN(v) {
						return true
					}
				}
			}
		}
	}
	return false
}

// runAMR runs an engine workload: setupBuilds timed builds, then a fixed
// number of identical jobs (see amrJob). Every job of one seed must reach
// the same checksum.
func runAMR(spec amrSpec, seed int64, seconds float64, tr *tracer, tl *tally) (map[string]float64, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xa3))
	knobs := spec.knobs(rng)
	reads, err := readRequests(rng, readsPerJob, spec.readN)
	if err != nil {
		return nil, err
	}
	r := &amrRun{spec: spec, reads: reads, workers: runtime.NumCPU(), tr: tr, tl: tl}
	r.build = func() (*core.Simulation, error) {
		return core.New(spec.problem, func(o *problems.Opts) {
			o.RootN, o.MaxLevel, o.Workers = spec.rootN, spec.level, r.workers
			o.Extra = knobs
		})
	}

	var setup []float64
	for range setupBuilds {
		runtime.GC()
		t0 := time.Now()
		_, err := r.build()
		d := time.Since(t0)
		if !tl.op(err) {
			return nil, fmt.Errorf("build %s: %w", spec.problem, err)
		}
		setup = append(setup, d.Seconds())
	}

	jobs := max(2, int(math.Round(seconds/spec.jobSeconds)))
	var (
		evolve, jobMS                  []float64
		wall, analysisWall, evolveWall time.Duration
		cpu                            time.Duration
		timing                         amr.Timing
		stats                          amr.Stats
		gridsFinal, maxLevel           int
		peakMB                         float64
		checksum                       string
	)
	for i := range jobs {
		j, err := r.job(fmt.Sprintf("job-%d", i))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			checksum = j.checksum
			fmt.Printf("# checksum %s seed=%d %s, relative mass change %.3g, %d grids created, %d final\n",
				spec.problem, seed, j.checksum, j.massChange, j.stats.GridsCreated, j.grids)
		}
		tl.check(j.checksum == checksum, "%s job %d: checksum %s, job 0 reached %s", spec.problem, i, j.checksum, checksum)
		fmt.Printf("# job %d: evolve %.3fs (%.3f CPU-s), latency %.3fs\n", i, j.evolve.Seconds(), j.cpu.Seconds(), j.wall.Seconds())
		evolve = append(evolve, j.evolve.Seconds())

		jobMS = append(jobMS, ms(j.wall))
		wall += j.wall
		evolveWall += j.evolve
		analysisWall += j.analysis
		cpu += j.cpu
		addTiming(&timing, j.timing)
		addStats(&stats, j.stats)
		gridsFinal += j.grids
		maxLevel = max(maxLevel, j.level)
		peakMB = max(peakMB, j.peakMB)
	}

	n := float64(jobs)
	m := map[string]float64{
		"setup_s":      median(setup),
		"peak_heap_mb": peakMB,
		"evolve_s":     median(evolve),
		"jobs_per_s":   n / wall.Seconds(),
		"run_p50_ms":   median(jobMS),
	}
	if err := putPercentiles(m, map[string]pct{
		"client.read_p50_ms":      {r.readMS, 0.5},
		"client.cold_read_p50_ms": {r.coldMS, 0.5},
		"tail.read_p90_ms":        {r.readMS, 0.9},
	}); err != nil {
		return nil, err
	}
	putTiming(m, timing, n)
	putStats(m, stats, n)
	m["amr.grids_final"] = float64(gridsFinal) / n
	m["amr.max_level"] = float64(maxLevel)
	m["par.cores_busy"] = cpu.Seconds() / evolveWall.Seconds()
	m["perf.est_gflop_per_s"] = perf.EstimateFlops(stats) / evolveWall.Seconds() / 1e9
	m["analysis.s_per_job"] = analysisWall.Seconds() / n
	return m, nil
}

// amrRun is the state one engine workload run shares between its jobs.
type amrRun struct {
	spec    amrSpec
	reads   []analysis.OutputRequest
	workers int
	build   func() (*core.Simulation, error)
	tr      *tracer
	tl      *tally
	// readMS and coldMS collect every job's read latencies.
	readMS, coldMS []float64
}

// amrJob is what one job measured. wall is the job's latency: build,
// evolve and checkpoint round trip. The reads a client makes of the
// finished job, the forced collections and the checks are not part of
// it: single-worker reads of ~10 ms drift between runs by up to 40 %,
// five times more than the evolve time does.
type amrJob struct {
	wall, evolve, analysis, cpu time.Duration
	timing                      amr.Timing
	stats                       amr.Stats
	grids, level                int
	peakMB, massChange          float64
	checksum                    string
}

// job builds the problem, evolves it spec.steps root steps, reads the
// slices of the final state, round-trips it through checkpoint bytes and
// reads the same slices from the restored state, checking mass, NaNs and
// that the restored state and its slices match the live ones.
func (r *amrRun) job(trace string) (amrJob, error) {
	spec, tl, tr := r.spec, r.tl, r.tr
	var j amrJob
	runtime.GC()
	t0 := time.Now()
	s, err := r.build()
	j.wall += time.Since(t0)
	if !tl.op(err) {
		return j, fmt.Errorf("build %s: %w", spec.problem, err)
	}
	h := s.H
	mass0 := h.TotalGasMass()
	for range spec.steps {
		sp := tr.start("amr.step", trace, 0)
		c0, t0 := cpuTime(), time.Now()
		s.Step()
		d := time.Since(t0)
		j.cpu += cpuTime() - c0
		sp.end()
		tl.op(nil)
		j.evolve += d
		j.peakMB = max(j.peakMB, liveHeapMB())
	}
	j.wall += j.evolve
	j.timing, j.stats = h.Timing, h.Stats
	j.grids, j.level = h.NumGrids(), h.MaxLevel()
	j.massChange = (h.TotalGasMass() - mass0) / mass0
	tl.check(math.Abs(j.massChange) <= massTol, "%s %s: relative gas mass change %g, beyond %g", spec.problem, trace, j.massChange, massTol)
	tl.check(!hasNaN(h), "%s %s: NaN in the hydro state", spec.problem, trace)
	j.checksum = h.ChecksumHex()

	readAll := func(h *amr.Hierarchy, name string, out *[]float64, check func(i int, digest [32]byte)) {
		for i, req := range r.reads {
			sp := tr.start(name, trace, 0)
			t0 := time.Now()
			art, err := req.Evaluate(h, spec.problem, spec.steps-1, 1)
			d := time.Since(t0)
			sp.end()
			j.analysis += d
			if tl.op(err) {
				*out = append(*out, ms(d))
				check(i, sha256.Sum256(art.Data))
			}
		}
	}
	// Each read phase starts from a fresh collection, so no collection
	// cycle started by the job before overlaps the reads.
	runtime.GC()
	live := make([][32]byte, len(r.reads))
	readAll(h, "analysis.read", &r.readMS, func(i int, digest [32]byte) { live[i] = digest })

	sp := tr.start("snapshot.restore", trace, 0)
	t0 = time.Now()
	restored, err := restore(h, spec.problem)
	j.wall += time.Since(t0)
	sp.end()
	if !tl.op(err) {
		return j, nil
	}
	restored.Cfg.Workers = r.workers
	tl.check(restored.ChecksumHex() == j.checksum, "%s %s: restored checksum %s, want %s", spec.problem, trace, restored.ChecksumHex(), j.checksum)
	s, h = nil, nil // only the restored state stays live
	runtime.GC()
	readAll(restored, "analysis.cold_read", &r.coldMS, func(i int, digest [32]byte) {
		tl.check(digest == live[i], "%s %s: slice %d differs after restore", spec.problem, trace, i)
	})
	return j, nil
}

// restore round-trips h through checkpoint bytes, as a restarted job
// service does.
func restore(h *amr.Hierarchy, problem string) (*amr.Hierarchy, error) {
	data, err := snapshot.Encode(h, problem)
	if err != nil {
		return nil, fmt.Errorf("encode checkpoint: %w", err)
	}
	r, _, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("read checkpoint: %w", err)
	}
	return r, nil
}

func addTiming(t *amr.Timing, o amr.Timing) {
	t.Hydro += o.Hydro
	t.Gravity += o.Gravity
	t.Chemistry += o.Chemistry
	t.NBody += o.NBody
	t.Rebuild += o.Rebuild
	t.Boundary += o.Boundary
	t.Other += o.Other
}

func addStats(s *amr.Stats, o amr.Stats) {
	s.CellUpdates += o.CellUpdates
	s.ChemCellCalls += o.ChemCellCalls
	s.ParticleKicks += o.ParticleKicks
	s.GridsCreated += o.GridsCreated
	s.BoundaryFills += o.BoundaryFills
	s.RebuildCount += o.RebuildCount
}

// putTiming records the §5 component seconds per job.
func putTiming(m map[string]float64, t amr.Timing, jobs float64) {
	m["amr.boundary_s"] = t.Boundary.Seconds() / jobs
	m["amr.rebuild_s"] = t.Rebuild.Seconds() / jobs
	m["amr.other_s"] = t.Other.Seconds() / jobs
	m["hydro.time_s"] = t.Hydro.Seconds() / jobs
	m["gravity.time_s"] = t.Gravity.Seconds() / jobs
	m["chem.time_s"] = t.Chemistry.Seconds() / jobs
	m["nbody.time_s"] = t.NBody.Seconds() / jobs
}

// putStats records the engine's work counts per job.
func putStats(m map[string]float64, s amr.Stats, jobs float64) {
	m["amr.boundary_fills"] = float64(s.BoundaryFills) / jobs
	m["amr.grids_created"] = float64(s.GridsCreated) / jobs
	m["amr.rebuilds"] = float64(s.RebuildCount) / jobs
	m["hydro.cell_updates"] = float64(s.CellUpdates) / jobs
	m["chem.cell_calls"] = float64(s.ChemCellCalls) / jobs
	m["nbody.particle_kicks"] = float64(s.ParticleKicks) / jobs
}

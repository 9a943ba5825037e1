package main

import (
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// storeMethods are the sim.Store methods whose calls the traced run
// times and reports.
var storeMethods = []string{"SaveManifest", "SaveResult", "SaveArtifact", "SaveCheckpoint", "DeleteCheckpoints", "LoadBlob", "Recover", "SaveCostModel"}

// timedStore wraps a sim.Store for the traced run: every call of a
// storeMethods method is a store.<Method> span in its job's trace, and
// its duration is kept per method. The other methods pass through
// untimed.
type timedStore struct {
	sim.Store
	tr *tracer

	mu      sync.Mutex
	calls   map[string][]time.Duration
	written int64
	blobJob map[string]string // content hash -> job ID, to put LoadBlob in its job's trace
}

func newTimedStore(s sim.Store, tr *tracer) *timedStore {
	return &timedStore{Store: s, tr: tr, calls: map[string][]time.Duration{}, blobJob: map[string]string{}}
}

func (s *timedStore) timed(method, job string, f func() error) error {
	sp := s.tr.start("store."+method, job, adoptParent)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	sp.end()
	s.mu.Lock()
	s.calls[method] = append(s.calls[method], d)
	s.mu.Unlock()
	return err
}

func (s *timedStore) wrote(n int) {
	s.mu.Lock()
	s.written += int64(n)
	s.mu.Unlock()
}

func (s *timedStore) SaveManifest(m sim.JobManifest) error {
	return s.timed("SaveManifest", m.ID, func() error { return s.Store.SaveManifest(m) })
}

func (s *timedStore) SaveResult(id string, res *sim.Result) error {
	return s.timed("SaveResult", id, func() error { return s.Store.SaveResult(id, res) })
}

func (s *timedStore) SaveArtifact(id string, a analysis.Artifact, hash string) error {
	s.mu.Lock()
	s.blobJob[hash] = id
	s.mu.Unlock()
	s.wrote(len(a.Data))
	return s.timed("SaveArtifact", id, func() error { return s.Store.SaveArtifact(id, a, hash) })
}

func (s *timedStore) LoadBlob(hash string) (data []byte, err error) {
	s.mu.Lock()
	job := s.blobJob[hash]
	s.mu.Unlock()
	err = s.timed("LoadBlob", job, func() error {
		data, err = s.Store.LoadBlob(hash)
		return err
	})
	return data, err
}

func (s *timedStore) SaveCheckpoint(id string, step int, data []byte) error {
	s.wrote(len(data))
	return s.timed("SaveCheckpoint", id, func() error { return s.Store.SaveCheckpoint(id, step, data) })
}

func (s *timedStore) DeleteCheckpoints(id string) error {
	return s.timed("DeleteCheckpoints", id, func() error { return s.Store.DeleteCheckpoints(id) })
}

func (s *timedStore) Recover() (recs []sim.RecoveredJob, err error) {
	err = s.timed("Recover", "", func() error {
		recs, err = s.Store.Recover()
		return err
	})
	s.mu.Lock()
	for _, r := range recs {
		for _, a := range r.Artifacts {
			s.blobJob[a.Hash] = r.Manifest.ID
		}
	}
	s.mu.Unlock()
	return recs, err
}

func (s *timedStore) SaveCostModel(state []byte) error {
	s.wrote(len(state))
	return s.timed("SaveCostModel", "", func() error { return s.Store.SaveCostModel(state) })
}

// putStoreMetrics records calls, median and total time per reported
// method, summed over every store the run opened.
func putStoreMetrics(m map[string]float64, stores []*timedStore) {
	var written int64
	calls := map[string][]time.Duration{}
	for _, s := range stores {
		s.mu.Lock()
		for k, v := range s.calls {
			calls[k] = append(calls[k], v...)
		}
		written += s.written
		s.mu.Unlock()
	}
	for _, method := range storeMethods {
		ds := calls[method]
		xs := make([]float64, len(ds))
		total := time.Duration(0)
		for i, d := range ds {
			xs[i] = ms(d)
			total += d
		}
		m["store."+method+".calls"] = float64(len(ds))
		m["store."+method+".p50_ms"] = median(xs)
		m["store."+method+".total_s"] = total.Seconds()
	}
	m["store.bytes_written"] = float64(written)
}

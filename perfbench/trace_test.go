package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.job", Start: 0, End: 100},
		// Two overlapping children cover [10, 50): 40 counted once.
		{ID: 2, Parent: 1, Name: "client.submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "client.events", Start: 30, End: 50},
		// A child reaching past its parent counts only inside it: [90, 100).
		{ID: 4, Parent: 1, Name: "client.result", Start: 90, End: 120},
		// A grandchild is charged to its own parent, not to the job.
		{ID: 5, Parent: 3, Name: "http.events", Start: 32, End: 48},
		{ID: 6, Parent: 5, Name: "store.SaveManifest", Start: 40, End: 44},
	}
	want := map[int64]int64{1: 100 - 40 - 10, 2: 30, 3: 20 - 16, 4: 30, 5: 16 - 4, 6: 4}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	layers := layerSelfSeconds(spans)
	if want := float64(50+30+4+30) / 1e9; layers["client"] != want {
		t.Errorf("client layer self %g s, want %g", layers["client"], want)
	}
	if want := float64(12) / 1e9; layers["http"] != want {
		t.Errorf("http layer self %g s, want %g", layers["http"], want)
	}
}

func TestResolveInheritsTraceAndAdoptsByContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: "job-a", Name: "client.job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.submit", Start: 0, End: 10},
		{ID: 3, Parent: 2, Name: "http.submit", Start: 2, End: 9},
		{ID: 4, Parent: 1, Trace: "job-a", Name: "http.events", Start: 20, End: 80},
		// Inside http.events (narrowest of another layer), not client.job.
		{ID: 5, Parent: adoptParent, Trace: "job-a", Name: "store.SaveCheckpoint", Start: 30, End: 35},
		// Inside no span of its trace: becomes a root.
		{ID: 6, Parent: adoptParent, Trace: "job-b", Name: "store.SaveResult", Start: 30, End: 35},
		// Never adopted by a span of its own layer.
		{ID: 7, Parent: adoptParent, Trace: "job-a", Name: "store.SaveManifest", Start: 31, End: 32},
	}
	resolve(spans)
	if spans[2].Trace != "job-a" {
		t.Errorf("http.submit trace %q, want inherited job-a", spans[2].Trace)
	}
	for i, want := range map[int]int64{4: 4, 5: 0, 6: 4} {
		if spans[i].Parent != want {
			t.Errorf("%s: parent %d, want %d", spans[i].Name, spans[i].Parent, want)
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	job := tr.start("client.job", "", 0)
	call := tr.start("client.submit", "", job.id())
	call.end()
	job.setTrace("job-a")
	job.end()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	spans, err := tr.finish(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Trace != "job-a" || spans[0].Parent != job.id() {
		t.Fatalf("spans %+v", spans)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Fatalf("trace file: %v, %d bytes", err, len(data))
	}

	var off *tracer // an untraced run: every call is a no-op
	sp := off.start("client.job", "", 0)
	sp.setTrace("x")
	sp.end()
	if sp.id() != 0 {
		t.Fatal("nil tracer handed out a span ID")
	}
}

package main

import (
	"encoding/json"
	"testing"
)

func TestGenSweepDeterministic(t *testing.T) {
	a, b := genSweep(7, 300), genSweep(7, 300)
	ja, _ := json.Marshal(reqs(a))
	jb, _ := json.Marshal(reqs(b))
	if string(ja) != string(jb) {
		t.Fatal("the same seed gave different sweeps")
	}
	jc, _ := json.Marshal(reqs(genSweep(8, 300)))
	if string(ja) == string(jc) {
		t.Fatal("seeds 7 and 8 gave the same sweep")
	}
	// A longer sweep of the same seed extends the shorter one.
	long, _ := json.Marshal(reqs(genSweep(7, 600)[:300]))
	if string(ja) != string(long) {
		t.Fatal("sweep prefix depends on the sweep length")
	}
}

func TestGenSweepRepeatsAndDistinctConfigs(t *testing.T) {
	items := genSweep(3, 3000)
	e0 := map[int]float64{}
	repeats := 0
	for i, it := range items {
		v := it.req.Knobs["e0"]
		if prev, ok := e0[it.config]; ok {
			repeats++
			if prev != v {
				t.Fatalf("item %d: config %d has e0 %g and %g", i, it.config, prev, v)
			}
			continue
		}
		if it.config != len(e0) {
			t.Fatalf("item %d: new config numbered %d, want %d", i, it.config, len(e0))
		}
		e0[it.config] = v
	}
	seen := map[float64]bool{}
	for _, v := range e0 {
		if seen[v] {
			t.Fatalf("two configs share e0 %g", v)
		}
		seen[v] = true
	}
	if want := len(items) / repeatEvery; repeats != want {
		t.Errorf("%d repeats, want %d", repeats, want)
	}
}

func reqs(items []sweepItem) []any {
	out := make([]any, len(items))
	for i, it := range items {
		out[i] = []any{it.config, it.req}
	}
	return out
}

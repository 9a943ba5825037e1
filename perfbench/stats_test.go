package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},    // rank 10, 10 beyond
		{19, 0.5, 10, false},   // rank 10, 9 beyond
		{100, 0.9, 90, true},   // rank 90, 10 beyond
		{99, 0.9, 90, false},   // rank ceil(89.1) = 90, 9 beyond
		{200, 0.95, 190, true}, // rank 190, 10 beyond
		{199, 0.95, 190, false},
		{1, 0.5, 1, false},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestPutPercentilesRefusesThinTails(t *testing.T) {
	m := map[string]float64{}
	if err := putPercentiles(m, map[string]pct{"x_p90_ms": {seq(50), 0.9}}); err == nil {
		t.Fatal("p90 over 50 samples was reported")
	}
	if err := putPercentiles(m, map[string]pct{"x_p50_ms": {seq(50), 0.5}}); err != nil || m["x_p50_ms"] != 25 {
		t.Fatalf("p50 over 50 samples: %v, %v", m["x_p50_ms"], err)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

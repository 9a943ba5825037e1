package main

import (
	"math/rand/v2"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// repeatEvery makes every repeatEvery-th submission repeat a seeded
// earlier configuration instead of drawing a new one. A fixed pattern,
// not a coin flip, so the mix of executions and cache hits is the same
// for every seed and every sweep length (a binomial draw moved the
// executed count by 3 % between seeds).
const repeatEvery = 3

// sweepItem is one submission of the service sweep: the request and the
// index of its distinct configuration.
type sweepItem struct {
	config int
	req    sim.Request
}

// sweepRequest is the small sedov job of distinct configuration e0: 8³,
// 4 root steps, a density slice every 2 steps and a projection pyramid
// at the end.
//
// The configurations differ in e0 by under 0.1 %, so every job does the
// same work: with e0 drawn from [5, 15) the seed alone moved the
// sweep's throughput by 15 %.
func sweepRequest(e0 float64) sim.Request {
	return sim.Request{
		Problem:  "sedov",
		RootN:    8,
		MaxLevel: sim.Int(1),
		Steps:    4,
		Workers:  1,
		Knobs:    map[string]float64{"e0": e0},
		Outputs: []analysis.OutputRequest{
			{Kind: analysis.KindSlice, Field: "rho", Axis: 2, N: 32, Every: 2},
			{Kind: analysis.KindPyramid, Field: "rho", Axis: 2, N: 64, NSamp: 16},
		},
	}
}

// genSweep returns the n submissions of the sweep for seed. The same
// seed always gives the same submissions in the same order.
func genSweep(seed int64, n int) []sweepItem {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e))
	var e0 []float64
	seen := map[float64]bool{}
	items := make([]sweepItem, n)
	for i := range items {
		c := len(e0)
		if i%repeatEvery == repeatEvery-1 {
			c = rng.IntN(len(e0))
		} else {
			v := 10 + 0.01*rng.Float64()
			for seen[v] {
				v = 10 + 0.01*rng.Float64()
			}
			seen[v] = true
			e0 = append(e0, v)
		}
		items[i] = sweepItem{config: c, req: sweepRequest(e0[c])}
	}
	return items
}

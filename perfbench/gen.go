package main

import (
	"fmt"
	"math"
	"math/rand"

	repro "repro"
)

// Every input of a run derives from the --seed argument alone. Each kind of
// input draws from its own stream, so adding draws to one kind never shifts
// another. Set-up inputs (warm-up runs, the durable pool) come from the
// fixed setupSeed instead: set-up does the same work for every seed, so
// setup_s measures the system, not the draw.
const (
	streamOps = iota + 1
	streamWarmup
	streamPool
	streamLadder
)

const setupSeed = 0

func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// serveStrategies pins the seven strategies the registry had when the
// benchmark was defined, so the request mix cannot drift with the registry.
var serveStrategies = []string{
	"alignedbound", "minmaxregret", "native", "penaltyaware",
	"planbouquet", "probabilistic", "spillbound",
}

// serveQueries are the sessions the serve workload runs against.
var serveQueries = []string{"2D_EQ", "3D_Q91", "4D_Q7"}

// durableQuery is the session of the durable workload, and durableStrategy
// the strategy of its durable runs.
const (
	durableQuery    = "3D_Q91"
	durableStrategy = "spillbound"
)

// buildDeck is one block of the build workload's mix: each block of ten
// builds holds exactly these queries, in a seeded order. The 3D/4D class
// takes eight builds in ten, so the median sits well inside it and the
// 5D_Q19 builds make the tail.
var buildDeck = []string{
	"3D_Q91", "3D_Q91", "3D_Q91", "3D_Q91",
	"4D_Q7", "4D_Q7", "4D_Q7", "4D_Q7",
	"5D_Q19", "5D_Q19",
}

var buildProfiles = []string{"postgres", "commercial"}

// runInput is one /v1 operation: a run of Strategy at Truth on session
// Query, or, when Get is non-negative, a read of completed pool run Get.
type runInput struct {
	Query    int
	Strategy string
	Truth    []float64
	Get      int
}

// buildInput is one session build.
type buildInput struct {
	Query   string
	Profile string
}

// spec resolves a benchmark query by name.
func spec(name string) (repro.BenchmarkQuery, error) {
	bq, ok := repro.BenchmarkQueryByName(name)
	if !ok {
		return bq, fmt.Errorf("unknown benchmark query %q", name)
	}
	return bq, nil
}

// logUniform draws a location log-uniformly over (lo,1]^d: off the ESS
// grid, the way real selectivities fall.
func logUniform(rng *rand.Rand, d int, lo float64) []float64 {
	t := make([]float64, d)
	for i := range t {
		t[i] = math.Exp(math.Log(lo) * rng.Float64())
	}
	return t
}

// genServe draws n serve operations: a uniform query and a uniform strategy
// per operation, with a log-uniform truth.
func genServe(rng *rand.Rand, n int, dims []int, lo []float64) []runInput {
	out := make([]runInput, n)
	for i := range out {
		q := rng.Intn(len(dims))
		st := serveStrategies[rng.Intn(len(serveStrategies))]
		out[i] = runInput{Query: q, Strategy: st, Truth: logUniform(rng, dims[q], lo[q]), Get: -1}
	}
	return out
}

// durableWriteShare is the fraction of durable operations that are durable
// runs; the rest read back a completed run.
const durableWriteShare = 2.0 / 3.0

// genDurable draws n durable operations over a pool of poolSize completed
// runs: durable SpillBound runs, or reads of a uniform pool run.
func genDurable(rng *rand.Rand, n, d int, lo float64, poolSize int) []runInput {
	out := make([]runInput, n)
	for i := range out {
		if rng.Float64() < durableWriteShare {
			out[i] = runInput{Strategy: durableStrategy, Truth: logUniform(rng, d, lo), Get: -1}
		} else {
			out[i] = runInput{Get: rng.Intn(poolSize)}
		}
	}
	return out
}

// genBuild draws n session builds, dealing buildDeck blocks in a seeded
// order with a uniform profile per build.
func genBuild(rng *rand.Rand, n int) []buildInput {
	out := make([]buildInput, 0, n+len(buildDeck))
	for len(out) < n {
		for _, j := range rng.Perm(len(buildDeck)) {
			out = append(out, buildInput{Query: buildDeck[j], Profile: buildProfiles[rng.Intn(len(buildProfiles))]})
		}
	}
	return out[:n]
}

// profileOptions returns the session options of a build of the given
// profile: what POST /v1/sessions uses for {"profile": profile}.
func profileOptions(profile string) repro.Options {
	opts := repro.BenchmarkOptions()
	if profile == "commercial" {
		opts.Params = repro.CommercialProfile()
	}
	return opts
}

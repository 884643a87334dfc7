package main

import (
	"context"
	"math"
	"net/http"
	"reflect"
	"testing"

	repro "repro"
	"repro/internal/server"
)

// The benchmark's self-test: its inputs are a function of the seed, and
// its checker rejects responses that do not match the library.
//
//	cd perfbench && go test .

func TestSameSeedSameInputs(t *testing.T) {
	dims, lo := []int{2, 3, 4}, []float64{1e-6, 1e-6, 1e-6}
	gen := func(seed int64) ([]runInput, []runInput, []buildInput) {
		return genServe(newRand(seed, streamOps), 200, dims, lo),
			genDurable(newRand(seed, streamOps), 200, 3, 1e-6, poolSize),
			genBuild(newRand(seed, streamOps), 37)
	}
	v1, d1, b1 := gen(7)
	v2, d2, b2 := gen(7)
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("the same seed generated different inputs")
	}
	v3, d3, b3 := gen(8)
	if reflect.DeepEqual(v1, v3) || reflect.DeepEqual(d1, d3) || reflect.DeepEqual(b1, b3) {
		t.Fatal("different seeds generated identical inputs")
	}
	for _, in := range v1 {
		for _, x := range in.Truth {
			if !(x > 1e-6 && x <= 1) {
				t.Fatalf("truth %v outside (GridLo, 1]", in.Truth)
			}
		}
	}
}

func TestBuildDeckProportions(t *testing.T) {
	in := genBuild(newRand(3, streamOps), 10*len(buildDeck))
	count := map[string]int{}
	for _, b := range in {
		count[b.Query]++
	}
	want := map[string]int{}
	for _, q := range buildDeck {
		want[q] += 10
	}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("ten blocks hold %v, want %v", count, want)
	}
}

func TestCheckSubOpt(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), 0.5, 0} {
		if checkSubOpt(v) == nil {
			t.Errorf("checkSubOpt(%v) accepted", v)
		}
	}
	if err := checkSubOpt(1); err != nil {
		t.Errorf("checkSubOpt(1): %v", err)
	}
}

// TestCheckerRejectsTamperedResponse runs real /v1 requests against the
// program's handler on a loopback listener and requires the checker to
// accept the responses as they are and reject each tampered copy.
func TestCheckerRejectsTamperedResponse(t *testing.T) {
	ctx := context.Background()
	n, err := startNode(server.DefaultConfig(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	const query = "2D_EQ"
	id, err := n.createSession(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := spec(query)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := repro.NewBenchmarkSessionContext(ctx, bq, repro.BenchmarkOptions())
	if err != nil {
		t.Fatal(err)
	}
	inputs := []runInput{
		{Strategy: "spillbound", Truth: []float64{0.02, 0.3}, Get: -1},
		{Strategy: "planbouquet", Truth: []float64{3e-5, 0.7}, Get: -1},
	}
	got := make([]runWire, len(inputs))
	for i, in := range inputs {
		req := runRequest{Strategy: in.Strategy, Truth: in.Truth}
		if err := n.call(ctx, http.MethodPost, "/v1/sessions/"+id+"/run", req, http.StatusOK, &got[i], active{}); err != nil {
			t.Fatal(err)
		}
	}
	done := []bool{true, true}
	var p problems
	verifyRuns(ctx, []*repro.Session{ref}, inputs, got, done, 2, &p)
	if p.count() != 0 {
		t.Fatalf("checker rejected untampered responses: %v", p.first)
	}

	tampers := map[string]func(*runWire){
		"totalCost":   func(w *runWire) { w.TotalCost *= 1 + 1e-12 },
		"optimalCost": func(w *runWire) { w.OptimalCost /= 2 },
		"subOpt":      func(w *runWire) { w.SubOpt = math.Nextafter(w.SubOpt, 0) },
		"steps":       func(w *runWire) { w.Steps++ },
		"algorithm":   func(w *runWire) { w.Algorithm = "native" },
	}
	for name, tamper := range tampers {
		bad := append([]runWire(nil), got...)
		tamper(&bad[1])
		var p problems
		verifyRuns(ctx, []*repro.Session{ref}, inputs, bad, done, 2, &p)
		if p.count() != 1 {
			t.Errorf("tampered %s: checker found %d problems, want 1", name, p.count())
		}
		if sameRun(bad[1], got[1]) == nil {
			t.Errorf("tampered %s: read-back check accepted it", name)
		}
	}
	// A run the window did not complete is not checked.
	bad := append([]runWire(nil), got...)
	bad[0].Steps = -1
	var skipped problems
	verifyRuns(ctx, []*repro.Session{ref}, inputs, bad, []bool{false, true}, 2, &skipped)
	if skipped.count() != 0 {
		t.Errorf("checker checked an operation that did not complete: %v", skipped.first)
	}
}

package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	repro "repro"
)

// problems collects correctness failures: the count of all, the text of the
// first few.
type problems struct {
	mu    sync.Mutex
	n     int
	first []string
}

const problemsShown = 10

func (p *problems) addf(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	if len(p.first) < problemsShown {
		p.first = append(p.first, fmt.Sprintf(format, args...))
	}
}

func (p *problems) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// checkSubOpt requires a sub-optimality that is finite and at least 1: no
// strategy can beat the oracle plan at the true location.
func checkSubOpt(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
		return fmt.Errorf("subOpt %v is not a finite value >= 1", v)
	}
	return nil
}

// compareRun checks a /v1 run response against a direct Session.RunContext
// of the same strategy and truth. The values must be equal exactly: the
// JSON encoding round-trips float64.
func compareRun(got runWire, want repro.RunResult, strategy string) error {
	switch {
	case got.Algorithm != strategy:
		return fmt.Errorf("algorithm %q, want %q", got.Algorithm, strategy)
	case got.TotalCost != want.TotalCost:
		return fmt.Errorf("totalCost %v, want %v", got.TotalCost, want.TotalCost)
	case got.OptimalCost != want.OptimalCost:
		return fmt.Errorf("optimalCost %v, want %v", got.OptimalCost, want.OptimalCost)
	case got.SubOpt != want.SubOpt:
		return fmt.Errorf("subOpt %v, want %v", got.SubOpt, want.SubOpt)
	case got.Steps != len(want.Steps):
		return fmt.Errorf("steps %d, want %d", got.Steps, len(want.Steps))
	}
	return checkSubOpt(got.SubOpt)
}

// sameRun checks that a read-back run equals the response of the request
// that ran it.
func sameRun(got, want runWire) error {
	if got.Algorithm != want.Algorithm || got.TotalCost != want.TotalCost ||
		got.OptimalCost != want.OptimalCost || got.SubOpt != want.SubOpt || got.Steps != want.Steps {
		return fmt.Errorf("read back %+v, ran %+v", got, want)
	}
	return nil
}

// verifyRuns re-runs every completed run operation directly on reference
// sessions, outside the timed window, and compares the responses. done[i]
// marks operation i as completed with a 200; reads (Get >= 0) are checked
// by the caller.
func verifyRuns(ctx context.Context, refs []*repro.Session, inputs []runInput, got []runWire, done []bool, workers int, p *problems) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				in := inputs[i]
				want, err := refs[in.Query].RunContext(ctx, repro.Algorithm(in.Strategy), repro.Location(in.Truth))
				if err != nil {
					p.addf("op %d: reference run: %v", i, err)
					continue
				}
				if err := compareRun(got[i], want, in.Strategy); err != nil {
					p.addf("op %d (%s on %d, truth %v): %v", i, in.Strategy, in.Query, in.Truth, err)
				}
			}
		}()
	}
	for i, in := range inputs {
		if done[i] && in.Get < 0 {
			next <- i
		}
	}
	close(next)
	wg.Wait()
}

package main

import (
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 5},
		{0.95, 10},
		{0.99, 10},
		{0.10, 1},
	}
	for _, tc := range cases {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.q*100, got, tc.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("empty sample p99 = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("singleton p50 = %g", got)
	}
}

func TestPickIsSeedDeterministic(t *testing.T) {
	draw := func() []trafficEvent {
		rng := rand.New(rand.NewSource(99))
		out := make([]trafficEvent, 200)
		for i := range out {
			out[i] = pick(rng, 99, []string{"spillbound", "minmaxregret"})
		}
		return out
	}
	a, b := draw(), draw()
	counts := map[string]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identically-seeded draws: %+v vs %+v", i, a[i], b[i])
		}
		counts[a[i].class]++
	}
	// Every traffic class must appear in a 200-event trace; the scenario
	// classes are what make the guardrail census non-vacuous.
	for _, class := range []string{"run", "run:adversarial", "run:correlated", "sweep", "build"} {
		if counts[class] == 0 {
			t.Errorf("class %s absent from a 200-event trace", class)
		}
	}
}

func TestRecorderCensus(t *testing.T) {
	rec := newRecorder()
	events := []telemetry.Event{
		{Kind: telemetry.PlanExec, Spent: 10},
		{Kind: telemetry.SpillExec, Spent: 4},
		{Kind: telemetry.Retry},
		{Kind: telemetry.CheckpointSave},
		{Kind: telemetry.BudgetAbort},
		{Kind: telemetry.Done},
	}
	rec.observe("run", "spillbound", "n1", "ok", 5*time.Millisecond, events, "budget_abort")
	rec.observe("run", "penaltyaware", "n2", "ok", 10*time.Millisecond, nil, "ess_escape")
	rec.observe("run", "spillbound", "n1", "shed", time.Millisecond, nil, "")
	rec.observe("build:chaos", "", "", "breaker", time.Millisecond, nil, "")
	rec.observe("sweep", "", "", "error", time.Millisecond, nil, "")
	classes, strategies, nodes, guard := rec.snapshot()
	if guard.WatchdogAborts != 1 || guard.ESSEscapes != 1 || guard.Sheds != 1 ||
		guard.BreakerRejections != 1 || guard.UnexpectedFailures != 1 {
		t.Errorf("census off: %+v", guard)
	}
	cs := classes["run"]
	if cs == nil || cs.Count != 3 || cs.Statuses["ok"] != 2 || cs.Statuses["shed"] != 1 {
		t.Errorf("run class off: %+v", cs)
	}
	// Phase breakdown: only the run with an event stream contributes, and
	// its costs land in the right buckets.
	if p := cs.Phases; p == nil || p.Runs != 1 || p.ExecCost != 10 || p.SpillCost != 4 ||
		p.Retries != 1 || p.Checkpoints != 1 || p.Guard != 1 {
		t.Errorf("run phase breakdown off: %+v", cs.Phases)
	}
	if classes["sweep"].Phases != nil {
		t.Errorf("sweep class should carry no phase breakdown: %+v", classes["sweep"].Phases)
	}
	if cs.P50Ms <= 0 || cs.P99Ms < cs.P50Ms {
		t.Errorf("percentiles off: p50=%g p99=%g", cs.P50Ms, cs.P99Ms)
	}
	// Per-strategy breakout: only run traffic with a strategy is keyed.
	if st := strategies["spillbound"]; st == nil || st.Count != 2 || st.P99Ms <= 0 {
		t.Errorf("spillbound strategy stats off: %+v", st)
	}
	if st := strategies["penaltyaware"]; st == nil || st.Count != 1 {
		t.Errorf("penaltyaware strategy stats off: %+v", st)
	}
	if len(strategies) != 2 {
		t.Errorf("strategies = %d keys, want 2", len(strategies))
	}
	// Per-node breakout (fleet spray mode): only arrivals fired at a named
	// node are keyed.
	if ns := nodes["n1"]; ns == nil || ns.Count != 2 || ns.Statuses["shed"] != 1 {
		t.Errorf("n1 node stats off: %+v", ns)
	}
	if len(nodes) != 2 {
		t.Errorf("nodes = %d keys, want 2", len(nodes))
	}
}

func TestRecorderTraceparent(t *testing.T) {
	rec := newRecorder()
	good := http.Header{}
	good.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	good.Set("X-Request-ID", "4bf92f3577b34da6a3ce929d0e0e4736")
	rec.observeTraceparent(good)
	garbled := http.Header{}
	garbled.Set("Traceparent", "not-a-traceparent")
	rec.observeTraceparent(garbled)
	noRequestID := http.Header{}
	noRequestID.Set("Traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	rec.observeTraceparent(noRequestID)
	_, _, _, guard := rec.snapshot()
	if guard.TraceparentViolations != 2 {
		t.Errorf("traceparent violations = %d, want 2 (garbled header + missing request id)",
			guard.TraceparentViolations)
	}
}

func TestReportProblems(t *testing.T) {
	good := &report{
		Classes: map[string]*classStats{"run": {P99Ms: 12}},
		Guardrails: guardrails{
			WatchdogAborts: 1, ESSEscapes: 2, Sheds: 3,
			BreakerRejections: 1, BreakerOpened: true,
		},
		Goroutines: leakCheck{Settled: true},
	}
	if p := good.problems(); len(p) != 0 {
		t.Errorf("good report flagged: %v", p)
	}
	bad := &report{Classes: map[string]*classStats{}}
	if p := bad.problems(); len(p) < 5 {
		t.Errorf("empty report should trip every check, got %v", p)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("spillbound, penaltyaware,minmaxregret")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"spillbound", "penaltyaware", "minmaxregret"}
	if len(mix) != len(want) {
		t.Fatalf("mix = %v", mix)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("mix[%d] = %q, want %q", i, mix[i], want[i])
		}
	}
	for _, bad := range []string{"quantum", "sb", "SpillBound"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) should be rejected", bad)
		}
	}
	if _, err := parseMix(" ,"); err == nil {
		t.Error("empty mix should be rejected")
	}
}

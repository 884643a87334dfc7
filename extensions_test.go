package repro

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestIdentifyEPPs(t *testing.T) {
	cat := TPCDSCatalog(10)
	epps, err := IdentifyEPPs(cat, paperEQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(epps) != 2 {
		t.Fatalf("epps = %v", epps)
	}
	// The identified predicates must be usable directly by NewSession.
	opts := DefaultOptions()
	opts.GridRes = 6
	sess, err := NewSession(cat, paperEQ, epps, opts)
	if err != nil {
		t.Fatalf("NewSession with identified epps: %v", err)
	}
	if sess.D() != 2 {
		t.Errorf("D = %d", sess.D())
	}
	// k <= 0 selects all join predicates.
	all, err := IdentifyEPPs(cat, paperEQ, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("conservative identification = %v, want all joins of the query", all)
	}
	if _, err := IdentifyEPPs(cat, "SELECT * FROM nope", 1); err == nil {
		t.Error("bad SQL should error")
	}
}

func TestContourRatioHelpers(t *testing.T) {
	if g := SpillBoundGuaranteeWithRatio(2, 2); g != 10 {
		t.Errorf("ratio-2 guarantee = %g", g)
	}
	r, b := OptimalContourRatio(2)
	if math.Abs(r-1.8165) > 0.01 || math.Abs(b-9.899) > 0.01 {
		t.Errorf("optimal ratio = %.4f / %.4f, want ≈1.8165 / 9.899", r, b)
	}
}

func TestSaveLoadSession(t *testing.T) {
	sess := newTestSession(t)
	var buf bytes.Buffer
	if err := sess.SaveESS(&buf); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.GridRes = 10
	loaded, err := LoadSession(TPCDSCatalog(10), paperEQ, paperEPPs, opts, &buf)
	if err != nil {
		t.Fatal(err)
	}
	truth := Location{0.01, 0.001}
	a, err := sess.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost != b.TotalCost || a.Trace != b.Trace {
		t.Error("loaded session diverges from the original")
	}
	if _, err := LoadSession(TPCDSCatalog(10), paperEQ, paperEPPs, opts, strings.NewReader("junk")); err == nil {
		t.Error("corrupt payload should error")
	}
}

// TestNewSessionWorkersMatchSerial checks that a session built across
// Options.Workers goroutines matches a serial (Workers=1) build.
func TestNewSessionWorkersMatchSerial(t *testing.T) {
	opts := DefaultOptions()
	opts.GridRes = 10
	opts.Workers = 1
	cat := TPCDSCatalog(10)
	seq, err := NewSession(cat, paperEQ, paperEPPs, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = runtime.NumCPU()
	par, err := NewSession(cat, paperEQ, paperEPPs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.POSPSize() != par.POSPSize() || seq.ContourCount() != par.ContourCount() {
		t.Error("parallel session diverges from sequential")
	}
	truth := Location{0.02, 0.2}
	a, _ := seq.Run(AlignedBound, truth)
	b, _ := par.Run(AlignedBound, truth)
	if a.TotalCost != b.TotalCost {
		t.Errorf("run cost %g vs %g", a.TotalCost, b.TotalCost)
	}
	if _, err := NewSession(cat, paperEQ, paperEPPs, Options{GridRes: 1, Params: PostgresProfile(), Workers: 2}); err == nil {
		t.Error("bad grid should error")
	}
}

func TestRunWithCostError(t *testing.T) {
	sess := newTestSession(t)
	truth := Location{0.01, 0.1}
	clean, err := sess.Run(SpillBound, truth)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := sess.RunWithCostError(SpillBound, truth, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Inflated bound per Sec 7 (oracle in the perturbed world may be up to
	// (1+δ) cheaper than the model optimum used as denominator).
	bound := sess.Guarantee(SpillBound) * 1.3 * 1.3
	if perturbed.SubOpt > bound {
		t.Errorf("perturbed SubOpt %.2f exceeds inflated bound %.2f", perturbed.SubOpt, bound)
	}
	if perturbed.TotalCost == clean.TotalCost {
		t.Log("note: perturbation happened to leave the trace cost unchanged")
	}
	if _, err := sess.RunWithCostError(SpillBound, truth, -0.1, 1); err == nil {
		t.Error("negative delta should error")
	}
}

func TestContourMapAndRenderRun(t *testing.T) {
	sess := newTestSession(t)
	m, err := sess.ContourMap()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "contour map") {
		t.Error("map header missing")
	}
	out, err := sess.RenderRun(Location{0.02, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "X") || !strings.Contains(out, "*") {
		t.Errorf("render missing trace markers:\n%s", out)
	}
	if _, err := sess.RenderRun(Location{0.5}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestGuaranteeRangeAB(t *testing.T) {
	sess := newTestSession(t)
	lo, hi := sess.GuaranteeRangeAB()
	if lo != 6 || hi != 10 {
		t.Errorf("AB range = [%g, %g], want [6, 10]", lo, hi)
	}
}

func TestRunPhysical(t *testing.T) {
	sess := newTestSession(t)
	const rowCap = 2000
	for _, a := range []Algorithm{PlanBouquet, SpillBound, AlignedBound} {
		res, err := sess.RunPhysical(a, rowCap)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.SubOpt < 1-1e-9 {
			t.Errorf("%v: physical SubOpt %g below 1", a, res.SubOpt)
		}
		if len(res.Steps) == 0 || res.Trace == "" {
			t.Errorf("%v: empty physical trace", a)
		}
	}
	if _, err := sess.RunPhysical(Native, rowCap); err == nil {
		t.Error("physical native should be rejected")
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	repro "repro"
	"repro/internal/bouquet"
	"repro/internal/cost"
	"repro/internal/ess"
	"repro/internal/optimizer"
	"repro/internal/query"
	"repro/internal/runstate"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The ladder is the traced run's second part: the benchmark's own code
// calls each layer's public functions on fixed inputs, records a span
// around every call, and derives the per-layer metrics from those spans
// and from counters read at the same boundaries. The ladder is the same
// for every workload, so a per-layer metric means the same on each.

// Ladder sizes: repetitions per timed call.
const (
	ladderReps     = 20 // parse, cost model, shared optimizer
	ladderOptimize = 30 // cold optimizations per query
	ladderBuilds   = 2  // ESS builds per query and worker count
	ladderSaves    = 3  // ESS save, load and bouquet reduction
	ladderTruths   = 12 // request truths per query and strategy
	ladderDurable  = 16 // durable runs
	ladderWrites   = 30 // checkpoint-sized atomic writes
)

// ladderBuildQueries is the build path's query set: the build workload's
// mix.
var ladderBuildQueries = []string{"3D_Q91", "4D_Q7", "5D_Q19"}

// catalogFor returns the catalog NewBenchmarkSessionContext binds bq to.
func catalogFor(bq repro.BenchmarkQuery) (*repro.Catalog, error) {
	switch bq.Catalog {
	case "tpcds", "":
		return repro.TPCDSCatalog(100), nil
	case "tpch":
		return repro.TPCHCatalog(1), nil
	case "imdb":
		return repro.IMDBCatalog(), nil
	}
	return nil, fmt.Errorf("unknown catalog %q", bq.Catalog)
}

// boundQuery parses bq and marks its error-prone predicates.
func boundQuery(bq repro.BenchmarkQuery) (*query.Query, error) {
	cat, err := catalogFor(bq)
	if err != nil {
		return nil, err
	}
	q, err := sqlmini.Parse(cat, bq.SQL)
	if err != nil {
		return nil, err
	}
	if err := q.MarkEPPs(bq.EPPs...); err != nil {
		return nil, err
	}
	return q, nil
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// counters are the ladder's counts, keyed by per-layer metric.
type counters map[string]float64

// perLayer runs the ladder and fills res with every per-layer metric: the
// workload-derived ones from the traced and untraced rounds, the rest from
// the ladder's spans.
func (b *bench) perLayer(ctx context.Context, wins []window, res *result) error {
	var shed, requests float64
	var tracedP50, untracedP50, late []float64
	var gcCPU, cpu, allocBytes, tracedOps float64
	for _, win := range wins {
		shed, requests = shed+win.shed, requests+win.requests
		p50 := quantile(latenciesMS(win.ops), 0.5)
		if !win.traced {
			untracedP50 = append(untracedP50, p50)
			continue
		}
		tracedP50 = append(tracedP50, p50)
		gcCPU, cpu, allocBytes = gcCPU+win.rt[0], cpu+win.rt[1], allocBytes+win.rt[2]
		tracedOps += float64(len(win.ops))
		for _, o := range win.ops {
			late = append(late, float64(o.start.Sub(o.due).Nanoseconds())/1e6)
		}
	}
	sort.Float64s(late)

	b.tr.on.Store(true)
	defer b.tr.on.Store(false)
	rng := newRand(b.seed, streamLadder)
	c := counters{}
	var p problems
	if err := ladderBuildPath(ctx, b, rng, c); err != nil {
		return fmt.Errorf("ladder build path: %w", err)
	}
	s, r, err := ladderRequestPath(ctx, b, rng, c, &p)
	if err != nil {
		return fmt.Errorf("ladder request path: %w", err)
	}
	shed, requests = shed+s, requests+r
	if err := ladderDurablePath(ctx, b, rng, c, &p); err != nil {
		return fmt.Errorf("ladder durable path: %w", err)
	}
	if n := p.count(); n > 0 {
		return fmt.Errorf("ladder: %d incorrect outputs, first: %v", n, p.first)
	}
	spans := b.tr.snapshot()

	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Workload rounds: tracing overhead, runtime and load generator.
	set("bench.trace_overhead_ms", median(tracedP50)-median(untracedP50), "ms")
	set("runtime.gc_cpu_frac", gcCPU/cpu, "fraction")
	set("runtime.alloc_kb_per_op", allocBytes/1024/tracedOps, "KB")
	set("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	set("guard.shed_frac", shed/requests, "fraction")

	// Build path: per query set, the sum of per-query medians.
	perQuery := func(name string) float64 { return sumOfMedians(spans, "ladder.build", name) }
	set("sqlmini.parse_us", perQuery("sqlmini.parse")/float64(len(ladderBuildQueries)), "us")
	set("cost.new_model_us", perQuery("cost.new_model")/float64(len(ladderBuildQueries)), "us")
	set("optimizer.optimize_us", median(durationsUS(spans, "optimizer.optimize")), "us")
	set("optimizer.allocs_per_call", c["optimizer.allocs"]/c["optimizer.calls"], "count")
	set("optimizer.new_shared_us", perQuery("optimizer.new_shared")/float64(len(ladderBuildQueries)), "us")
	build, serial := perQuery("ess.build")/1e3, perQuery("ess.build_serial")/1e3
	set("ess.build_ms", build, "ms")
	set("ess.build_serial_ms", serial, "ms")
	set("ess.parallel_speedup", serial/build, "x")
	set("ess.cells_per_s", c["ess.cells"]/(build/1e3), "1/s")
	set("ess.allocs_per_cell", c["ess.serial_allocs"]/c["ess.cells"], "count")
	set("ess.posp_plans", c["ess.posp_plans"], "count")
	set("ess.save_ms", perQuery("ess.save")/1e3, "ms")
	set("ess.load_ms", perQuery("ess.load")/1e3, "ms")
	set("bouquet.reduce_ms", perQuery("bouquet.reduce")/1e3, "ms")
	set("bouquet.plans_kept", c["bouquet.plans_kept"], "count")

	// Request path: medians over the request inputs.
	set("optimizer.oracle_us", median(durationsUS(spans, "optimizer.oracle")), "us")
	for _, st := range serveStrategies {
		set("repro.run_us."+st, median(durationsUS(spans, "repro.run."+st)), "us")
	}
	runs := c["repro.runs"]
	set("repro.allocs_per_run", c["repro.allocs"]/runs, "count")
	set("engine.steps_per_run", c["engine.steps"]/runs, "count")
	set("telemetry.events_per_run", c["telemetry.events"]/runs, "count")
	set("telemetry.events_encode_us", median(durationsUS(spans, "telemetry.encode")), "us")
	set("trace.from_run_us", median(durationsUS(spans, "trace.from_run")), "us")
	set("trace.spans_per_run", c["trace.spans"]/runs, "count")
	set("server.handler_us", median(durationsUS(spans, "server.serve_http")), "us")
	var self, client []float64
	for _, d := range byReq(spans, "ladder.request") {
		if h, ok := d["server.serve_http"]; ok {
			self = append(self, h-d["repro.run"]-d["trace.from_run"]-d["server.encode"])
		}
		if cl, ok := d["http.client"]; ok {
			client = append(client, cl-d["server.handler"])
		}
	}
	set("server.self_us", median(self), "us")
	set("http.client_us", median(client), "us")
	set("server.resp_bytes", c["server.resp_bytes"]/runs, "bytes")
	set("server.allocs_per_request", c["server.allocs"]/runs, "count")

	// Durable path.
	set("server.durable_get_us", median(durationsUS(spans, "server.durable_get")), "us")
	set("runstate.checkpoints_per_run", c["runstate.checkpoints"]/c["runstate.runs"], "count")
	set("runstate.bytes_per_run", c["runstate.bytes"]/c["runstate.runs"], "bytes")
	set("runstate.write_us", median(durationsUS(spans, "runstate.write")), "us")

	path := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.json", b.name, b.seed))
	if err := writeSpans(path, b.name, b.seed, spans); err != nil {
		return err
	}
	fmt.Printf("# spans: %d written to %s\n", len(spans), path)
	return nil
}

// sumOfMedians sums, over the requests rooted at spans named root, the
// median duration (µs) of each request's spans named name.
func sumOfMedians(spans []spanRecord, root, name string) float64 {
	roots := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == root {
			roots[s.Req] = true
		}
	}
	per := map[uint64][]float64{}
	for _, s := range spans {
		if s.Name == name && roots[s.Req] {
			per[s.Req] = append(per[s.Req], float64(s.End-s.Start)/1e3)
		}
	}
	total := 0.0
	for _, ds := range per {
		total += median(ds)
	}
	return total
}

// ladderBuildPath times the build path layer by layer on the build mix:
// sqlmini → cost → optimizer → ess → bouquet.
func ladderBuildPath(ctx context.Context, b *bench, rng *rand.Rand, c counters) error {
	for _, name := range ladderBuildQueries {
		bq, err := spec(name)
		if err != nil {
			return err
		}
		cat, err := catalogFor(bq)
		if err != nil {
			return err
		}
		root := b.tr.start("ladder.build")
		var q *query.Query
		for k := 0; k < ladderReps; k++ {
			sp := root.child("sqlmini.parse")
			q, err = sqlmini.Parse(cat, bq.SQL)
			sp.end()
			if err != nil {
				return err
			}
		}
		if err := q.MarkEPPs(bq.EPPs...); err != nil {
			return err
		}
		params := repro.BenchmarkOptions().Params
		var m *cost.Model
		for k := 0; k < ladderReps; k++ {
			sp := root.child("cost.new_model")
			m, err = cost.NewModel(q, params)
			sp.end()
			if err != nil {
				return err
			}
		}
		for k := 0; k < ladderReps; k++ {
			sp := root.child("optimizer.new_shared")
			_, err := optimizer.NewShared(m)
			sp.end()
			if err != nil {
				return err
			}
		}
		opt, err := optimizer.New(m)
		if err != nil {
			return err
		}
		locs := make([][]float64, ladderOptimize)
		for k := range locs {
			locs[k] = logUniform(rng, bq.D, bq.GridLo)
		}
		for _, at := range locs {
			sp := root.child("optimizer.optimize")
			opt.Optimize(at)
			sp.end()
		}
		a0 := mallocs()
		for _, at := range locs {
			opt.Optimize(at)
		}
		c["optimizer.allocs"] += float64(mallocs() - a0)
		c["optimizer.calls"] += float64(len(locs))

		grid := ess.NewGrid(q.D(), bq.GridRes, bq.GridLo)
		var space *ess.Space
		for k := 0; k < ladderBuilds; k++ {
			sp := root.child("ess.build")
			space, err = ess.BuildParallelContext(ctx, m, grid, runtime.GOMAXPROCS(0), nil)
			sp.end()
			if err != nil {
				return err
			}
		}
		for k := 0; k < ladderBuilds; k++ {
			a0 := mallocs()
			sp := root.child("ess.build_serial")
			_, err = ess.BuildParallelContext(ctx, m, grid, 1, nil)
			sp.end()
			if err != nil {
				return err
			}
			if k == 0 {
				c["ess.serial_allocs"] += float64(mallocs() - a0)
			}
		}
		c["ess.cells"] += float64(grid.Size())
		c["ess.posp_plans"] += float64(len(space.Plans()))

		var buf bytes.Buffer
		for k := 0; k < ladderSaves; k++ {
			buf.Reset()
			sp := root.child("ess.save")
			err = space.Save(&buf)
			sp.end()
			if err != nil {
				return err
			}
		}
		file := filepath.Join(b.tmp, "space-"+name+".ess")
		if err := runstate.WriteFileAtomic(file, buf.Bytes()); err != nil {
			return err
		}
		for k := 0; k < ladderSaves; k++ {
			sp := root.child("ess.load")
			err := loadSpace(file, m)
			sp.end()
			if err != nil {
				return err
			}
		}
		var diag *bouquet.Diagram
		for k := 0; k < ladderSaves; k++ {
			sp := root.child("bouquet.reduce")
			diag = bouquet.Reduce(space, repro.BenchmarkOptions().ReductionLambda)
			sp.end()
		}
		c["bouquet.plans_kept"] += float64(diag.PlanCount())
		root.end()
	}
	return nil
}

// loadSpace rehydrates a persisted ESS the way a durable session does.
func loadSpace(file string, m *cost.Model) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = ess.Load(f, m)
	return err
}

// runWireFull mirrors the /v1 run response, to time its encoding.
type runWireFull struct {
	Algorithm   string            `json:"algorithm"`
	TotalCost   float64           `json:"totalCost"`
	OptimalCost float64           `json:"optimalCost"`
	SubOpt      float64           `json:"subOpt"`
	Guarantee   float64           `json:"guarantee,omitempty"`
	Steps       int               `json:"steps"`
	Trace       string            `json:"trace"`
	Events      []telemetry.Event `json:"events"`
	TraceID     string            `json:"traceId,omitempty"`
}

// ladderItem is one request input of the request path.
type ladderItem struct {
	query    int
	strategy string
	truth    []float64
	body     []byte
}

// ladderRequestPath times the request path on the serve sessions: the
// oracle, each strategy's run, the event encode, the span tree, the
// handler without a socket and the loopback client. It returns the shed
// and request counts of its server.
func ladderRequestPath(ctx context.Context, b *bench, rng *rand.Rand, c counters, p *problems) (float64, float64, error) {
	n, err := startNode(server.DefaultConfig(), b.tr, 1)
	if err != nil {
		return 0, 0, err
	}
	defer n.close()
	var items []ladderItem
	sessions := make([]*repro.Session, len(serveQueries))
	ids := make([]string, len(serveQueries))
	for qi, name := range serveQueries {
		bq, err := spec(name)
		if err != nil {
			return 0, 0, err
		}
		if sessions[qi], err = repro.NewBenchmarkSessionContext(ctx, bq, repro.BenchmarkOptions()); err != nil {
			return 0, 0, err
		}
		if ids[qi], err = n.createSession(ctx, name); err != nil {
			return 0, 0, err
		}
		q, err := boundQuery(bq)
		if err != nil {
			return 0, 0, err
		}
		m, err := cost.NewModel(q, repro.BenchmarkOptions().Params)
		if err != nil {
			return 0, 0, err
		}
		oracle, err := optimizer.NewShared(m)
		if err != nil {
			return 0, 0, err
		}
		for _, st := range serveStrategies {
			for k := 0; k < ladderTruths; k++ {
				truth := logUniform(rng, bq.D, bq.GridLo)
				body, err := json.Marshal(runRequest{Strategy: st, Truth: truth})
				if err != nil {
					return 0, 0, err
				}
				items = append(items, ladderItem{query: qi, strategy: st, truth: truth, body: body})
				root := b.tr.start("ladder.oracle")
				sp := root.child("optimizer.oracle")
				oracle.Optimize(truth)
				sp.end()
				root.end()
			}
		}
	}
	handler := n.handler
	path := func(it ladderItem) string { return "/v1/sessions/" + ids[it.query] + "/run" }
	for _, it := range items {
		root := b.tr.start("ladder.request")
		sp := root.child("repro.run")
		st := root.child("repro.run." + it.strategy)
		res, err := sessions[it.query].RunContext(ctx, repro.Algorithm(it.strategy), repro.Location(it.truth))
		st.end()
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		sp = root.child("telemetry.encode")
		_, err = json.Marshal(res.Events)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		sp = root.child("trace.from_run")
		tree := trace.FromRun(res.TraceID, res.Events)
		sp.end()
		wire := runWireFull{Algorithm: it.strategy, TotalCost: res.TotalCost, OptimalCost: res.OptimalCost,
			SubOpt: res.SubOpt, Steps: len(res.Steps), Trace: res.Trace, Events: res.Events, TraceID: res.TraceID}
		sp = root.child("server.encode")
		_, err = json.Marshal(wire)
		sp.end()
		if err != nil {
			return 0, 0, err
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path(it), bytes.NewReader(it.body))
		sp = root.child("server.serve_http")
		handler.ServeHTTP(rec, req)
		sp.end()
		var got runWire
		if rec.Code != http.StatusOK {
			p.addf("ladder %s: status %d", path(it), rec.Code)
		} else if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			p.addf("ladder %s: decode: %v", path(it), err)
		} else if err := compareRun(got, res, it.strategy); err != nil {
			p.addf("ladder %s %s: %v", path(it), it.strategy, err)
		}
		if err := n.call(ctx, http.MethodPost, path(it), json.RawMessage(it.body), http.StatusOK, nil, root); err != nil {
			return 0, 0, err
		}
		root.end()
		c["repro.runs"]++
		c["engine.steps"] += float64(len(res.Steps))
		c["telemetry.events"] += float64(len(res.Events))
		c["trace.spans"] += float64(tree.Spans)
		c["server.resp_bytes"] += float64(rec.Body.Len())
	}

	// Allocation passes, untraced so the tracer's own allocations stay out.
	b.tr.on.Store(false)
	a0 := mallocs()
	for _, it := range items {
		if _, err := sessions[it.query].RunContext(ctx, repro.Algorithm(it.strategy), repro.Location(it.truth)); err != nil {
			return 0, 0, err
		}
	}
	c["repro.allocs"] = float64(mallocs() - a0)
	recs := make([]*httptest.ResponseRecorder, len(items))
	reqs := make([]*http.Request, len(items))
	for i, it := range items {
		recs[i] = httptest.NewRecorder()
		reqs[i] = httptest.NewRequest(http.MethodPost, path(it), bytes.NewReader(it.body))
	}
	a0 = mallocs()
	for i := range items {
		handler.ServeHTTP(recs[i], reqs[i])
	}
	c["server.allocs"] = float64(mallocs() - a0)
	b.tr.on.Store(true)
	return shedCounts(ctx, []*node{n})
}

// ladderDurablePath times durable runs, their read-back and a
// checkpoint-sized atomic write on a server with a data directory.
func ladderDurablePath(ctx context.Context, b *bench, rng *rand.Rand, c counters, p *problems) error {
	cfg := server.DefaultConfig()
	cfg.DataDir = filepath.Join(b.tmp, "ladder-durable")
	n, err := startNode(cfg, b.tr, 1)
	if err != nil {
		return err
	}
	defer n.close()
	bq, err := spec(durableQuery)
	if err != nil {
		return err
	}
	id, err := n.createSession(ctx, durableQuery)
	if err != nil {
		return err
	}
	handler := n.handler
	var sizes []float64
	for k := 0; k < ladderDurable; k++ {
		body, err := json.Marshal(runRequest{Strategy: durableStrategy, Truth: logUniform(rng, bq.D, bq.GridLo), Durable: true})
		if err != nil {
			return err
		}
		root := b.tr.start("ladder.durable")
		rec := httptest.NewRecorder()
		sp := root.child("server.durable_run")
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/run", bytes.NewReader(body)))
		sp.end()
		var ran struct {
			runWire
			Events []struct {
				Kind string `json:"kind"`
			} `json:"events"`
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("durable run: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &ran); err != nil {
			return err
		}
		for _, ev := range ran.Events {
			if ev.Kind == string(telemetry.CheckpointSave) {
				c["runstate.checkpoints"]++
			}
		}
		fi, err := os.Stat(filepath.Join(cfg.DataDir, id, "runs", ran.RunID+".json"))
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(fi.Size()))
		c["runstate.runs"]++

		rec = httptest.NewRecorder()
		sp = root.child("server.durable_get")
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/runs/"+ran.RunID, nil))
		sp.end()
		root.end()
		var got runWire
		if rec.Code != http.StatusOK {
			p.addf("durable GET %s: status %d", ran.RunID, rec.Code)
		} else if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			p.addf("durable GET %s: decode: %v", ran.RunID, err)
		} else if err := sameRun(got, ran.runWire); err != nil {
			p.addf("durable GET %s: %v", ran.RunID, err)
		}
	}
	// A run rewrites its snapshot at every checkpoint: bytes per run is the
	// checkpoint count times the snapshot size.
	c["runstate.bytes"] = c["runstate.checkpoints"] * median(sizes)
	payload := bytes.Repeat([]byte{'x'}, int(median(sizes)))
	file := filepath.Join(cfg.DataDir, "perfbench-write.json")
	for k := 0; k < ladderWrites; k++ {
		root := b.tr.start("ladder.write")
		sp := root.child("runstate.write")
		err := runstate.WriteFileAtomic(file, payload)
		sp.end()
		root.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// shedCounts sums rqp_shed_total and rqp_requests_total over the nodes'
// /v1/metrics expositions.
func shedCounts(ctx context.Context, nodes []*node) (shed, requests float64, err error) {
	for _, n := range nodes {
		status, data, err := n.do(ctx, http.MethodGet, "/v1/metrics", nil, active{})
		if err != nil {
			return 0, 0, err
		}
		if status != http.StatusOK {
			return 0, 0, fmt.Errorf("GET /v1/metrics: status %d", status)
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			var dst *float64
			switch {
			case strings.HasPrefix(line, "rqp_shed_total"):
				dst = &shed
			case strings.HasPrefix(line, "rqp_requests_total"):
				dst = &requests
			default:
				continue
			}
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("metrics line %q: %w", line, err)
			}
			*dst += v
		}
	}
	return shed, requests, nil
}

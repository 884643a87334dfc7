package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	repro "repro"
	"repro/internal/server"
)

// A workload is one set of generated inputs and the system instance they
// run against. prepare generates the inputs; setup builds a fresh instance
// (and is timed: set-up is repeated and its median reported); op runs one
// operation; check verifies every output after the measured window.
type workload interface {
	// prepare draws the run's inputs from the seed for a window of dur.
	prepare(seed int64, dur time.Duration)
	// clients is the number of closed-loop clients, given the CPU count.
	clients(procs int) int
	// capacity is the number of generated operations.
	capacity() int
	setup(ctx context.Context, b *bench) error
	op(ctx context.Context, i int, root active) error
	// afterOp runs outside the operation's timing, between two operations
	// of the closed loop.
	afterOp(i int)
	check(ctx context.Context, b *bench, done []bool, p *problems)
	// nodes lists the servers of the current instance.
	nodes() []*node
	teardown() error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "build":
		return &buildWorkload{}, nil
	case "serve":
		return &serveWorkload{}, nil
	case "durable":
		return &serveWorkload{durable: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want build, serve or durable)", name)
}

// Generated operations per second of window: more than the workloads
// complete on two cores.
const (
	serveCapacity   = 4000
	durableCapacity = 500
	buildCapacity   = 50
)

// poolSize is the number of completed durable runs set-up leaves for the
// durable workload's reads.
const poolSize = 16

// serveWorkload drives POST /v1/sessions/{id}/run against rqpd's
// single-node default configuration; the durable variant adds a data
// directory, runs durably and reads completed runs back.
type serveWorkload struct {
	durable bool

	queries []string
	specs   []repro.BenchmarkQuery
	inputs  []runInput
	got     []runWire

	n       *node
	dataDir string
	ids     []string  // session ID per query
	pool    []runWire // durable: completed runs read back by Get
	poolIn  []runInput
}

func (w *serveWorkload) capacity() int { return len(w.inputs) }
func (w *serveWorkload) afterOp(int)   {}

// clients is one per CPU for serve; a durable run waits on fsync, so one
// client keeps the disk from queueing.
func (w *serveWorkload) clients(procs int) int {
	if w.durable {
		return 1
	}
	return procs
}

func (w *serveWorkload) nodes() []*node {
	if w.n == nil {
		return nil
	}
	return []*node{w.n}
}

func (w *serveWorkload) prepare(seed int64, dur time.Duration) {
	w.queries = serveQueries
	if w.durable {
		w.queries = []string{durableQuery}
	}
	w.specs = make([]repro.BenchmarkQuery, len(w.queries))
	dims := make([]int, len(w.queries))
	lo := make([]float64, len(w.queries))
	for i, q := range w.queries {
		bq, _ := repro.BenchmarkQueryByName(q)
		w.specs[i], dims[i], lo[i] = bq, bq.D, bq.GridLo
	}
	ops := newRand(seed, streamOps)
	if w.durable {
		w.inputs = genDurable(ops, int(dur.Seconds()*durableCapacity), dims[0], lo[0], poolSize)
		w.poolIn = make([]runInput, 0, poolSize)
		pr := newRand(setupSeed, streamPool)
		for i := 0; i < poolSize; i++ {
			w.poolIn = append(w.poolIn, runInput{Strategy: durableStrategy, Truth: logUniform(pr, dims[0], lo[0]), Get: -1})
		}
	} else {
		w.inputs = genServe(ops, int(dur.Seconds()*serveCapacity), dims, lo)
	}
	w.got = make([]runWire, len(w.inputs))
}

// setup starts a server, builds the sessions through POST /v1/sessions and
// warms every strategy on every session (the selection strategies compute
// their per-session plan choice on first use). The durable variant also
// runs the pool of durable runs its reads target.
func (w *serveWorkload) setup(ctx context.Context, b *bench) error {
	cfg := server.DefaultConfig()
	if w.durable {
		dir, err := os.MkdirTemp(b.tmp, "durable-")
		if err != nil {
			return err
		}
		w.dataDir = dir
		cfg.DataDir = dir
	}
	n, err := startNode(cfg, b.tr, b.procs)
	if err != nil {
		return err
	}
	w.n = n
	w.ids = make([]string, len(w.queries))
	for i, q := range w.queries {
		if w.ids[i], err = n.createSession(ctx, q); err != nil {
			return err
		}
	}
	warm := newRand(setupSeed, streamWarmup)
	for i, bq := range w.specs {
		for _, st := range serveStrategies {
			for k := 0; k < 2; k++ {
				req := runRequest{Strategy: st, Truth: logUniform(warm, bq.D, bq.GridLo)}
				if err := n.call(ctx, http.MethodPost, "/v1/sessions/"+w.ids[i]+"/run", req, http.StatusOK, nil, active{}); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
		}
	}
	if w.durable {
		w.pool = make([]runWire, len(w.poolIn))
		for k, in := range w.poolIn {
			req := runRequest{Strategy: in.Strategy, Truth: in.Truth, Durable: true}
			if err := n.call(ctx, http.MethodPost, "/v1/sessions/"+w.ids[0]+"/run", req, http.StatusOK, &w.pool[k], active{}); err != nil {
				return fmt.Errorf("durable pool: %w", err)
			}
			if w.pool[k].RunID == "" {
				return fmt.Errorf("durable pool run %d: response has no run ID", k)
			}
		}
	}
	return nil
}

func (w *serveWorkload) op(ctx context.Context, i int, root active) error {
	in := w.inputs[i]
	if in.Get >= 0 {
		path := "/v1/sessions/" + w.ids[0] + "/runs/" + w.pool[in.Get].RunID
		return w.n.call(ctx, http.MethodGet, path, nil, http.StatusOK, &w.got[i], root)
	}
	req := runRequest{Strategy: in.Strategy, Truth: in.Truth, Durable: w.durable}
	return w.n.call(ctx, http.MethodPost, "/v1/sessions/"+w.ids[in.Query]+"/run", req, http.StatusOK, &w.got[i], root)
}

// check re-runs every run directly on reference sessions built the way the
// server builds its own, and requires every read to return its run's
// response.
func (w *serveWorkload) check(ctx context.Context, b *bench, done []bool, p *problems) {
	refs := make([]*repro.Session, len(w.specs))
	for i, bq := range w.specs {
		s, err := repro.NewBenchmarkSessionContext(ctx, bq, repro.BenchmarkOptions())
		if err != nil {
			p.addf("reference session %s: %v", bq.Name, err)
			return
		}
		refs[i] = s
	}
	verifyRuns(ctx, refs, w.inputs, w.got, done, b.procs, p)
	if !w.durable {
		return
	}
	poolDone := make([]bool, len(w.poolIn))
	for k := range poolDone {
		poolDone[k] = true
	}
	verifyRuns(ctx, refs, w.poolIn, w.pool, poolDone, b.procs, p)
	for i, in := range w.inputs {
		if !done[i] {
			continue
		}
		if in.Get >= 0 {
			if err := sameRun(w.got[i], w.pool[in.Get]); err != nil {
				p.addf("op %d: GET run %d: %v", i, in.Get, err)
			}
		} else if w.got[i].RunID == "" {
			p.addf("op %d: durable run response has no run ID", i)
		}
	}
}

func (w *serveWorkload) teardown() error {
	var err error
	if w.n != nil {
		err = w.n.close()
		w.n = nil
	}
	if w.dataDir != "" {
		if rerr := os.RemoveAll(w.dataDir); rerr != nil && err == nil {
			err = rerr
		}
		w.dataDir = ""
	}
	return err
}

// buildWorkload runs session builds back to back through
// repro.NewBenchmarkSessionContext, closed loop with one client.
type buildWorkload struct {
	inputs []buildInput
	last   *repro.Session
	hashes [][sha256.Size]byte
	bad    []error
}

func (w *buildWorkload) clients(int) int { return 1 }
func (w *buildWorkload) capacity() int   { return len(w.inputs) }
func (w *buildWorkload) nodes() []*node  { return nil }
func (w *buildWorkload) teardown() error {
	w.last = nil
	return nil
}

func (w *buildWorkload) prepare(seed int64, dur time.Duration) {
	w.inputs = genBuild(newRand(seed, streamOps), int(dur.Seconds()*buildCapacity)+len(buildDeck))
	w.hashes = make([][sha256.Size]byte, len(w.inputs))
	w.bad = make([]error, len(w.inputs))
}

// setup warms the build path with one build of each query.
func (w *buildWorkload) setup(ctx context.Context, b *bench) error {
	seen := map[string]bool{}
	for _, q := range buildDeck {
		if seen[q] {
			continue
		}
		seen[q] = true
		bq, err := spec(q)
		if err != nil {
			return err
		}
		if _, err := repro.NewBenchmarkSessionContext(ctx, bq, repro.BenchmarkOptions()); err != nil {
			return fmt.Errorf("warm-up build %s: %w", q, err)
		}
	}
	return nil
}

func (w *buildWorkload) op(ctx context.Context, i int, root active) error {
	in := w.inputs[i]
	bq, err := spec(in.Query)
	if err != nil {
		return err
	}
	w.last = nil
	sp := root.child("repro.NewBenchmarkSessionContext")
	s, err := repro.NewBenchmarkSessionContext(ctx, bq, profileOptions(in.Profile))
	sp.end()
	w.last = s
	return err
}

// afterOp runs a GC while the built session is still held, so the live
// heap read after it is what a built session retains, and fingerprints the
// ESS for the check against a serial build.
func (w *buildWorkload) afterOp(i int) {
	if w.last == nil {
		return
	}
	runtime.GC()
	h := sha256.New()
	if err := w.last.SaveESS(h); err != nil {
		w.bad[i] = err
	}
	copy(w.hashes[i][:], h.Sum(nil))
}

// check builds every (query, profile) the window built once more with
// Workers=1 and requires byte-identical SaveESS output from every parallel
// build.
func (w *buildWorkload) check(ctx context.Context, b *bench, done []bool, p *problems) {
	serial := map[buildInput][sha256.Size]byte{}
	for i, in := range w.inputs {
		if !done[i] {
			continue
		}
		if w.bad[i] != nil {
			p.addf("op %d: SaveESS: %v", i, w.bad[i])
			continue
		}
		want, ok := serial[in]
		if !ok {
			bq, err := spec(in.Query)
			if err != nil {
				p.addf("op %d: %v", i, err)
				continue
			}
			opts := profileOptions(in.Profile)
			opts.Workers = 1
			s, err := repro.NewBenchmarkSessionContext(ctx, bq, opts)
			if err != nil {
				p.addf("serial build %s/%s: %v", in.Query, in.Profile, err)
				continue
			}
			h := sha256.New()
			if err := s.SaveESS(h); err != nil {
				p.addf("serial SaveESS %s/%s: %v", in.Query, in.Profile, err)
				continue
			}
			copy(want[:], h.Sum(nil))
			serial[in] = want
		}
		if w.hashes[i] != want {
			p.addf("op %d: %s/%s: parallel ESS differs from the Workers=1 build", i, in.Query, in.Profile)
		}
	}
}

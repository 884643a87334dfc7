// Command perfbench is the repository's benchmark. It drives one workload
// (build, serve or durable) from a seed through the system's public entry
// points — repro.NewBenchmarkSessionContext and the rqpd handler on a
// loopback listener — checks every output, and prints the end-to-end
// metrics; a traced run (--trace 1) prints the per-layer metrics instead.
// See README.md in this directory.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit status: 0 when every output
// is correct, 3 when the run completed but an output was incorrect (the
// result line says correct:false), 2 when the run itself failed (no result
// line).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	exitRunFailed = 2
	exitIncorrect = 3
)

// rounds is how many times a run sets its workload up and measures it,
// each time for an equal share of --seconds. Every end-to-end metric is
// the median over the rounds: one stall of the shared machine moves one
// round, not the result, and every round starts from the same state.
const rounds = 5

// watchdog bounds a whole run: a harness that hangs fails instead.
const watchdog = 170 * time.Second

func main() {
	os.Exit(run())
}

// errIncorrect marks a run that completed with an incorrect output.
var errIncorrect = errors.New("outputs incorrect")

func run() int {
	name := flag.String("workload", "", "workload: build, serve or durable")
	seed := flag.Int64("seed", 1, "seed all inputs derive from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and temporary data")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: run failed: --seconds must be positive and --trace 0 or 1")
		return exitRunFailed
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
		return exitRunFailed
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
		return exitRunFailed
	}
	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
		return exitRunFailed
	}
	stop := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run failed: still running after %v\n", watchdog)
		os.RemoveAll(tmp)
		os.Exit(exitRunFailed)
	})
	b := &bench{
		name: *name, w: w, seed: *seed, traced: *traced == 1,
		dur:   time.Duration(*seconds * float64(time.Second)),
		procs: runtime.NumCPU(), tmp: tmp, out: *out,
	}
	if b.traced {
		b.tr = newTracer()
	}
	res, err := b.run(context.Background())
	stop.Stop()
	if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
		return exitRunFailed
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", jerr)
		return exitRunFailed
	}
	fmt.Println(string(line))
	if err != nil {
		return exitIncorrect
	}
	return 0
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run of one workload.
type bench struct {
	name   string
	w      workload
	seed   int64
	dur    time.Duration
	traced bool
	tr     *tracer // nil unless traced
	procs  int
	tmp    string // removed when the run ends
	out    string
	stats  []opStat // one per generated operation
}

// opStat is the timing of one operation. due is when its client finished
// the previous one: start minus due is the generator's own delay. heap is
// the live heap after the operation, as the last GC marked it.
type opStat struct {
	due, start, end time.Time
	err             error
	heap            float64
}

// window is the record of one measured phase.
type window struct {
	ops        []opStat
	began, end time.Time
	cpu        time.Duration // process user+sys CPU
	rt         [3]float64    // runtime/metrics deltas, see rtSamples
	traced     bool
	// shed and requests are the servers' rqp_shed_total and
	// rqp_requests_total at the end of a traced run's round.
	shed, requests float64
}

// completed counts the window's successful operations.
func (win window) completed() int {
	n := 0
	for _, o := range win.ops {
		if o.err == nil {
			n++
		}
	}
	return n
}

func (b *bench) run(ctx context.Context) (*result, error) {
	w := b.w
	w.prepare(b.seed, b.dur)
	defer w.teardown()
	b.stats = make([]opStat, w.capacity())
	// The harness's own data (inputs, result slots) is live from here on;
	// live_heap_mb counts what the system adds to it.
	runtime.GC()
	base := liveHeap()
	// Each round sets a fresh instance up, measures it for its share of the
	// window and tears it down; a traced run traces the odd rounds.
	var setups []float64
	var wins []window
	next := 0
	roundDur := b.dur / rounds
	for r := 0; r < rounds; r++ {
		t := time.Now()
		if err := w.setup(ctx, b); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		traced := b.traced && r%2 == 1
		if b.tr != nil {
			b.tr.on.Store(traced)
		}
		win, n, err := b.window(ctx, next, roundDur)
		if b.tr != nil {
			b.tr.on.Store(false)
		}
		if err != nil {
			return nil, err
		}
		win.traced = traced
		if b.traced {
			if win.shed, win.requests, err = shedCounts(ctx, w.nodes()); err != nil {
				return nil, err
			}
		}
		if err := w.teardown(); err != nil {
			return nil, err
		}
		wins, next = append(wins, win), n
	}

	res := &result{Metrics: map[string]metric{}}
	var p problems
	done := make([]bool, w.capacity())
	i := 0
	for _, win := range wins {
		for _, o := range win.ops {
			res.Attempted++
			if o.err != nil {
				res.Failed++
				p.addf("op %d failed: %v", i, o.err)
			} else {
				done[i] = true
			}
			i++
		}
	}
	if res.Attempted == 0 {
		return nil, errors.New("the window completed no operation")
	}
	w.check(ctx, b, done, &p)

	if b.traced {
		if err := b.perLayer(ctx, wins, res); err != nil {
			return nil, err
		}
	} else {
		perRound := func(f func(window) float64) float64 {
			vs := make([]float64, len(wins))
			for k, win := range wins {
				vs[k] = f(win)
			}
			return median(vs)
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{perRound(func(win window) float64 {
			return float64(win.completed()) / win.end.Sub(win.began).Seconds()
		}), "1/s"}
		res.Metrics["p50_ms"] = metric{perRound(func(win window) float64 { return quantile(latenciesMS(win.ops), 0.50) }), "ms"}
		res.Metrics["p99_ms"] = metric{perRound(func(win window) float64 { return quantile(latenciesMS(win.ops), 0.99) }), "ms"}
		res.Metrics["cpu_ms_per_op"] = metric{perRound(func(win window) float64 {
			return float64(win.cpu.Microseconds()) / 1e3 / float64(len(win.ops))
		}), "ms"}
		res.Metrics["live_heap_mb"] = metric{perRound(func(win window) float64 {
			heaps := make([]float64, len(win.ops))
			for k, o := range win.ops {
				heaps[k] = o.heap
			}
			return (median(heaps) - base) / (1 << 20)
		}), "MB"}
	}
	res.Correct = p.count() == 0
	b.summary(res, &p, setups)
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	if !res.Correct {
		return res, errIncorrect
	}
	return res, nil
}

// summary prints the run's figures, with the error rate the result line
// carries as attempted and failed, and any correctness problems.
func (b *bench) summary(res *result, p *problems, setups []float64) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%t GOMAXPROCS=%d ops=%d\n",
		b.name, b.seed, b.dur.Seconds(), b.traced, runtime.GOMAXPROCS(0), res.Attempted)
	fmt.Printf("# set-up of each round (s): %.4f\n", setups)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("%-34s %14.6g %s\n", "error_rate", float64(res.Failed)/float64(res.Attempted), "fraction")
	if n := p.count(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d incorrect outputs; first:\n", n)
		for _, s := range p.first {
			fmt.Fprintln(os.Stderr, "  ", s)
		}
	}
}

// window runs the workload's operations from index first for dur.
func (b *bench) window(ctx context.Context, first int, dur time.Duration) (window, int, error) {
	var win window
	cpu0 := cpuTime()
	rt0 := rtSample()
	win.began = time.Now()
	var next int
	var err error
	win.ops, next, err = b.closedLoop(ctx, first, win.began.Add(dur), b.w.clients(b.procs))
	win.end = time.Now()
	for _, o := range win.ops {
		if o.end.After(win.end) {
			win.end = o.end
		}
	}
	win.cpu = cpuTime() - cpu0
	rt1 := rtSample()
	for k := range win.rt {
		win.rt[k] = rt1[k] - rt0[k]
	}
	return win, next, err
}

// closedLoop runs operations back to back from clients goroutines until
// deadline: each client sends its next operation when its previous one
// completes.
func (b *bench) closedLoop(ctx context.Context, first int, deadline time.Time, clients int) ([]opStat, int, error) {
	var next atomic.Int64
	next.Store(int64(first))
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			due := time.Now()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= b.w.capacity() {
					exhausted.Store(true)
					return
				}
				start := time.Now()
				root := b.tr.start("op")
				err := b.w.op(ctx, i, root)
				end := time.Now()
				root.end()
				b.w.afterOp(i)
				metrics.Read(heap)
				b.stats[i] = opStat{due: due, start: start, end: end, err: err, heap: float64(heap[0].Value.Uint64())}
				due = time.Now()
			}
		}()
	}
	wg.Wait()
	if exhausted.Load() {
		return nil, 0, errors.New("the window outran the generated inputs")
	}
	last := min(int(next.Load()), b.w.capacity())
	return b.stats[first:last], last, nil
}

// latenciesMS returns operation latencies in milliseconds, sorted.
func latenciesMS(ops []opStat) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = float64(o.end.Sub(o.start).Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// liveHeap returns the bytes the last GC cycle marked reachable.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64())
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

// median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSamples are the Go runtime counters a window records: GC CPU, total
// CPU (both as the runtime estimates them) and bytes allocated.
var rtSamples = [3]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func rtSample() [3]float64 {
	s := make([]metrics.Sample, len(rtSamples))
	for i, n := range rtSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

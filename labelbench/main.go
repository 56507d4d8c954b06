// Command labelbench is the repository's benchmark: closed-loop labeling
// traffic against the live retainer-pool plane on three real topologies,
// plus the paper's combined simulator configuration. See README.md.
//
// Usage:
//
//	labelbench --workload pool-wire --seed 1 --seconds 20 --trace 0
//	labelbench --workload all --seed 1 --seconds 20
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics — the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/clamshell/clamshell/internal/core"
)

var workloads = []string{"pool-wire", "durable-http", "replicated-routed", "paper-sim"}

// setupReps is how many times, at least, a live run sets its system up,
// and simSetUps how many times paper-sim builds its sweep; setup_s is the
// median. durable-http's set-up takes a few milliseconds, most of them in
// fsyncs whose time varies, so it sets up more often than it has
// segments; replicated-routed's takes 0.7 s and varies little.
var setupReps = map[string]int{"pool-wire": 3, "durable-http": 25, "replicated-routed": 3}

const simSetUps = 25

func main() {
	workload := flag.String("workload", "all", "pool-wire, durable-http, replicated-routed, paper-sim or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for journals, mirrors and span dumps")
	flag.Parse()

	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "labelbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "labelbench:", err)
		os.Exit(1)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	fmt.Println(machine(*workdir))
	status := 0
	for _, name := range names {
		r, err := runWorkload(name, *seed, time.Duration(*seconds*float64(time.Second)), *workdir, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "labelbench: %s: %v\n", name, err)
			if r == nil {
				r = &report{workload: name}
			}
			r.correct = false
		}
		if len(r.missing) > 0 {
			fmt.Fprintf(os.Stderr, "labelbench: %s: not measured: %s\n", name, strings.Join(r.missing, "; "))
		}
		if !r.correct || len(r.missing) > 0 {
			status = 1
		}
		r.print(os.Stdout)
	}
	os.Exit(status)
}

func runWorkload(name string, seed int64, window time.Duration, workdir string, traced bool) (*report, error) {
	switch name {
	case "paper-sim":
		return paperSim(seed, window, traced)
	case "pool-wire", "durable-http", "replicated-routed":
		return live(name, seed, window, workdir, traced)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// segmentLen cuts a live run's window into segments, each on a freshly
// set up system. pool-wire keeps every task in memory (no journal, so no
// retention) at ~2 KiB a task and labels ~100k tasks a second on two
// cores, so one-second segments bound the process near 500 MB;
// durable-http uses 2.5 s segments (each still sees a compaction) so one
// burst of outside load or one slow fsync moves only one of the
// per-segment values; replicated-routed labels a few dozen tasks a second
// and keeps the whole window for its tail.
var segmentLen = map[string]time.Duration{"pool-wire": time.Second, "durable-http": 2500 * time.Millisecond}

// tailQuantile is the percentile the live tails (task_p99_ms,
// repl.barrier_wait_p99_ms and, but on replicated-routed, round_p99_us)
// report, p99 unless pinned lower here. replicated-routed completes about 500 tasks and waits about a
// thousand barriers per traced segment in a 25 s window, too few for a
// p99 with ten samples beyond it (that takes 1000), so its tails are
// pinned at p97, which a run 25% slower than that still supports. A
// pinned quantile does not drift with throughput; a run with too few
// samples for it fails.
func tailQuantile(name string) float64 {
	if name == "replicated-routed" {
		return 0.97
	}
	return 0.99
}

// roundTailQuantile is the percentile round_p99_us reports.
//
// On pool-wire about 1% of rounds, a share that moves with the host's
// other load, wait out a host stall or a collector mark phase of
// milliseconds while the rest take a few hundred microseconds, so a p99
// sits on that knee and flips between its sides from run to run (ten
// runs of the same code spread by up to 0.29 of their median). The
// pinned p98 stays below the knee.
//
// On wire the workers of one lane round share that frame's send and reply
// times, so replicated-routed's ~600 turnaround samples per window are
// only ~55 distinct frame times, most within a few ms of 0.67 s. A p97
// there rests on the slowest one or two frames, which one slow fsync on
// the shared disk decides; the pinned p90 rests on the slowest five or
// six.
func roundTailQuantile(name string) float64 {
	switch name {
	case "pool-wire":
		return 0.98
	case "replicated-routed":
		return 0.90
	}
	return tailQuantile(name)
}

// segmentsOf is the number of segments a window of the workload gets.
func segmentsOf(name string, window time.Duration) int {
	if d := segmentLen[name]; d > 0 {
		return max(1, int((window+d/2)/d))
	}
	return 1
}

// live runs one live workload. Untraced, it sets up at least setupReps
// systems (setup_s is the median) and measures the window in segments.
// Traced, segments alternate untraced and traced, so the per-layer
// metrics and the tracing overhead come from the same run.
func live(name string, seed int64, window time.Duration, workdir string, traced bool) (*report, error) {
	in := makeInputs(seed)
	rep := &report{workload: name}
	k := segmentsOf(name, window)
	if traced {
		k = max(k, 2)
	}
	seg := window / time.Duration(k)
	var setups []float64
	setUpTimed := func(tracedSeg bool) (*liveSystem, error) {
		// Collect the previous segment's system first, so every set-up and
		// segment starts from the same heap and the collector's cycles land
		// alike in each.
		runtime.GC()
		t0 := time.Now()
		sys, err := setUp(name, workdir, in, tracedSeg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return sys, nil
	}
	for i := k; i < setupReps[name]; i++ {
		sys, err := setUpTimed(false)
		if err != nil {
			return rep, err
		}
		if err := sys.close(); err != nil {
			return rep, fmt.Errorf("teardown: %w", err)
		}
	}
	var plain []*liveResult
	var layers []map[string]float64
	var tracedRates []float64
	var lastTrace *tracer
	for i := 0; i < k; i++ {
		tracedSeg := traced && i%2 == 1
		sys, err := setUpTimed(tracedSeg)
		if err != nil {
			return rep, err
		}
		res, err := measure(sys, seg, tracedSeg, rep)
		if err != nil {
			return rep, err
		}
		if !tracedSeg {
			plain = append(plain, res)
			continue
		}
		layers = append(layers, liveLayers(sys.topo, res, tailQuantile(name)))
		tracedRates = append(tracedRates, res.rate())
		lastTrace = sys.topo.tr
	}
	if !traced {
		liveEndToEnd(rep, plain, setups, roundTailQuantile(name), tailQuantile(name))
		return rep, nil
	}
	// Per-layer values are medians over the traced segments; a value one
	// segment could not measure (NaN) stays missing.
	values := make(map[string]float64)
	for _, m := range layerMetrics {
		var vs []float64
		for _, l := range layers {
			vs = append(vs, l[m.name])
		}
		values[m.name] = median(vs)
		if slices.ContainsFunc(vs, math.IsNaN) {
			values[m.name] = math.NaN()
		}
	}
	var rates []float64
	for _, r := range plain {
		rates = append(rates, r.rate())
	}
	values["trace.overhead_pct"] = overheadPct(median(rates), median(tracedRates))
	addLayers(rep, values)
	path := filepath.Join(workdir, "spans-"+name+".csv")
	if err := lastTrace.write(path); err != nil {
		return rep, fmt.Errorf("write spans: %w", err)
	}
	rep.notes = append(rep.notes, "spans of the last traced segment: "+path)
	return rep, nil
}

// medianMetrics reports each metric's median across the slices of a run
// (segments or passes).
func medianMetrics(sets [][]metric, of string) []metric {
	if len(sets) == 0 {
		return nil
	}
	out := append([]metric(nil), sets[0]...)
	for i := range out {
		var vs []float64
		for _, set := range sets {
			vs = append(vs, set[i].value)
		}
		out[i].value = median(vs)
		if len(sets) > 1 {
			out[i].note = fmt.Sprintf("median of %d %s", len(sets), of)
		}
	}
	return out
}

// measure runs the window on sys, checks it and tears it down, adding
// its op counts to rep.
func measure(sys *liveSystem, window time.Duration, traced bool, rep *report) (*liveResult, error) {
	res, err := sys.runWindow(window, traced)
	closeErr := sys.close()
	if err != nil {
		return nil, err
	}
	rep.attempted += res.stats.attempted
	rep.failed += res.stats.failed
	rep.degraded += int64(res.after.degraded - res.before.degraded)
	if res.checkError != nil {
		return nil, fmt.Errorf("correctness: %w", res.checkError)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("teardown: %w", closeErr)
	}
	if res.stats.labels == 0 {
		return nil, errors.New("no record was labeled inside the window")
	}
	rep.correct = true
	return res, nil
}

// liveEndToEnd derives the end-to-end metrics of the untraced segments.
// Each metric but the tails is computed per segment and reported as the
// median across segments, so one segment hit by outside load moves no
// number much. The tails pool every segment's samples: on a small VM
// about 1% of rounds absorb a ~4 ms host scheduling stall, and a
// per-segment tail near that knee flips between its two sides where the
// pooled one moves smoothly with the share of stalled rounds.
func liveEndToEnd(rep *report, segs []*liveResult, setups []float64, roundQ, taskQ float64) {
	var sets [][]metric
	var all laneStats
	var rates []float64
	var window time.Duration
	for _, r := range segs {
		st := &r.stats
		mergeStats(&all, st)
		labels := float64(st.labels)
		seg := &report{}
		seg.add("labels_per_s", "records/s", r.rate())
		seg.add("round_p50_us", "us", median(st.rounds))
		seg.add("task_p50_ms", "ms", median(st.tasks))
		seg.add("batch_p50_ms", "ms", median(st.batches))
		seg.add("batch_std_ms", "ms", median(st.batchStd))
		seg.add("cpu_us_per_label", "us", float64(r.after.cpu-r.before.cpu)/1e3/labels)
		seg.add("alloc_kb_per_label", "KiB", float64(r.after.alloc-r.before.alloc)/1024/labels)
		seg.add("usd_per_label", "usd", (r.after.usd-r.before.usd)/labels)
		sets = append(sets, seg.metrics)
		rates = append(rates, r.rate())
		window += r.window
	}
	med := medianMetrics(sets, "segments")
	rep.metrics = append(rep.metrics, med[:2]...)
	rep.addTail("round_p99_us", "us", all.rounds, roundQ)
	rep.metrics = append(rep.metrics, med[2])
	rep.addTail("task_p99_ms", "ms", all.tasks, taskQ)
	rep.metrics = append(rep.metrics, med[3:]...)
	rep.add("setup_s", "s", median(setups))
	rep.metrics[len(rep.metrics)-1].note = fmt.Sprintf("median of %d set-ups", len(setups))
	sorted := sortedCopy(rates)
	rep.notes = append(rep.notes,
		fmt.Sprintf("segments=%d window=%v tasks=%d batches=%d rounds=%d", len(segs), window.Round(time.Millisecond), len(all.tasks), len(all.batches), len(all.rounds)),
		fmt.Sprintf("segment labels_per_s: min=%.0f median=%.0f max=%.0f", sorted[0], median(rates), sorted[len(sorted)-1]))
}

// paperSim runs the simulator workload.
func paperSim(seed int64, window time.Duration, traced bool) (*report, error) {
	rep := &report{workload: "paper-sim"}
	var setups []float64
	var cfgs []core.Config
	for i := 0; i < simSetUps; i++ {
		runtime.GC()
		t0 := time.Now()
		cfgs = simSetUp(seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	if !traced {
		r := runSim(cfgs, window, nil)
		rep.attempted, rep.correct = r.runs, r.check == nil
		if r.check != nil {
			return rep, r.check
		}
		simEndToEnd(rep, r, setups)
		return rep, nil
	}
	// Untraced and traced quarters alternate, so outside load shifts both
	// sides of the overhead alike.
	var plain, withSpans []*simRun
	for i := 0; i < 4; i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = newTracer(1)
		}
		r := runSim(cfgs, window/4, tr)
		rep.attempted += r.runs
		if r.check != nil {
			return rep, r.check
		}
		if tr == nil {
			plain = append(plain, r)
		} else {
			withSpans = append(withSpans, r)
		}
	}
	rep.correct = true
	addLayers(rep, simLayers(plain, withSpans))
	return rep, nil
}

// simEndToEnd reports the simulated outputs of the first pass and the
// host-side metrics over complete passes: rates as the median over
// passes, and the host time of one RunLabeling per seed as its median
// over passes, whose p50 and p99 are taken across the sweep.
func simEndToEnd(rep *report, r *simRun, setups []float64) {
	var sets [][]metric
	for _, p := range r.passes {
		labels := float64(p.labels)
		pass := &report{}
		pass.add("labels_per_s", "records/s", labels/p.wall.Seconds())
		pass.add("cpu_us_per_label", "us", float64(p.cpu)/1e3/labels)
		pass.add("alloc_kb_per_label", "KiB", float64(p.alloc)/1024/labels)
		sets = append(sets, pass.metrics)
	}
	host := medianMetrics(sets, "passes")
	perSeed := make([]float64, len(r.first))
	for i := range perSeed {
		var us []float64
		for _, p := range r.passes {
			us = append(us, p.hostUS[i])
		}
		perSeed[i] = median(us)
	}
	var batches, stds, tasks []float64
	var usd float64
	var labels int
	for _, s := range r.first {
		batches = append(batches, s.batches...)
		stds = append(stds, s.stds...)
		for _, t := range s.tasks {
			tasks = append(tasks, t*1e3)
		}
		usd += s.cost.Total().Dollars()
		labels += s.labels
	}
	rep.metrics = append(rep.metrics, host[0])
	rep.add("round_p50_us", "us", median(perSeed))
	rep.addTail("round_p99_us", "us", perSeed, 0.99)
	rep.add("task_p50_ms", "ms", median(tasks))
	rep.addTail("task_p99_ms", "ms", tasks, 0.99)
	rep.add("batch_p50_ms", "ms", median(batches)*1e3)
	rep.add("batch_std_ms", "ms", median(stds)*1e3)
	rep.metrics = append(rep.metrics, host[1:]...)
	rep.add("usd_per_label", "usd", usd/float64(labels))
	rep.add("setup_s", "s", median(setups))
	rep.notes = append(rep.notes, fmt.Sprintf("engine_runs=%d complete_passes=%d sweep=%d (task, batch and cost metrics are simulated)",
		r.runs, len(r.passes), simSweep))
}

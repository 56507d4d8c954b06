package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/clamshell/clamshell/internal/core"
	"github.com/clamshell/clamshell/internal/metrics"
	"github.com/clamshell/clamshell/internal/pool"
	"github.com/clamshell/clamshell/internal/straggler"
	simworker "github.com/clamshell/clamshell/internal/worker"
)

// simSweep is the number of engine seeds in one pass of paper-sim. The
// run repeats the same sweep until its time is up, so the simulated
// outputs depend only on --seed while the host timings gain samples. A
// pass takes a few seconds, enough samples for a per-pass p99 with ten
// runs beyond it.
const simSweep = 1024

// simConfig is the paper's combined configuration, fig12 SM+PM8: Np=15,
// Ng=5, 300 tasks, random straggler routing and pool maintenance at 8 s,
// over the slow-heavy bimodal population of the maintenance figures.
func simConfig(seed int64) core.Config {
	return core.Config{
		Seed: seed, PoolSize: 15, NumTasks: 300, GroupSize: 5, Retainer: true,
		Population: func(rng *rand.Rand) simworker.Population {
			return simworker.Bimodal(rng, 0.5, 2*time.Second, 20*time.Second)
		},
		Straggler:   straggler.Config{Enabled: true, Policy: straggler.Random},
		Maintenance: pool.Config{Enabled: true, Threshold: 8 * time.Second, UseTermEst: true},
	}
}

// simSummary is the part of a RunResult the benchmark reports and the
// determinism check compares.
type simSummary struct {
	total    time.Duration
	cost     metrics.Accounting
	replaced int
	labels   int
	batches  []float64 // batch latency, s
	stds     []float64 // per-batch task-latency std, s
	tasks    []float64 // task latency from batch start, s
}

func summarize(r *metrics.RunResult) simSummary {
	s := simSummary{
		total: r.TotalTime, cost: r.Cost, replaced: r.Replaced, labels: r.TotalLabels(),
		batches: r.BatchLatencies(), stds: r.BatchStds(),
	}
	starts := make(map[int]time.Time, len(r.Batches))
	for _, b := range r.Batches {
		starts[b.Index] = b.Start
	}
	for _, e := range r.Trace.Events {
		if !e.Terminated {
			s.tasks = append(s.tasks, e.End.Sub(starts[e.Batch]).Seconds())
		}
	}
	return s
}

func (a simSummary) equal(b simSummary) bool {
	return a.total == b.total && a.cost == b.cost && a.replaced == b.replaced && a.labels == b.labels &&
		slices.Equal(a.batches, b.batches) && slices.Equal(a.stds, b.stds) && slices.Equal(a.tasks, b.tasks)
}

// simSeeds derives the sweep's engine seeds from the benchmark seed.
func simSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, simSweep)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// simSetUp builds the sweep's configurations and runs one warm-up engine
// run; it is paper-sim's setup_s.
func simSetUp(seed int64) []core.Config {
	seeds := simSeeds(seed)
	cfgs := make([]core.Config, len(seeds))
	for i, s := range seeds {
		cfgs[i] = simConfig(s)
	}
	core.NewEngine(cfgs[0]).RunLabeling()
	return cfgs
}

// simPass is the host-side measurement of one complete pass of the sweep.
type simPass struct {
	hostUS []float64 // host time per RunLabeling, µs
	labels int64     // simulated records labeled
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
}

// simRun is one timed paper-sim run.
type simRun struct {
	first    []simSummary // the first pass: the simulated outputs
	passes   []simPass    // complete passes only
	replaced []float64
	runs     int64
	spans    map[string]*spanStat
	check    error
}

// runSim repeats the sweep for the window; the pass under way when the
// window ends is cut and left out. With a tracer each engine run is a
// span.
func runSim(cfgs []core.Config, window time.Duration, tr *tracer) *simRun {
	r := &simRun{}
	runtime.GC()
	start := time.Now()
	if tr != nil {
		tr.on.Store(true)
	}
	for pass := 0; time.Since(start) < window || pass == 0; pass++ {
		p := simPass{}
		alloc0, cpu0, t0 := memAlloc(), cpuTime(), time.Now()
		complete := true
		for _, cfg := range cfgs {
			if pass > 0 && time.Since(start) >= window {
				complete = false
				break
			}
			span := tr.begin(0, hopRound, "core.run", 1)
			t := time.Now()
			res := core.NewEngine(cfg).RunLabeling()
			d := time.Since(t)
			tr.end(0, hopRound, span)
			p.hostUS = append(p.hostUS, float64(d)/1e3)
			p.labels += int64(res.TotalLabels())
			r.replaced = append(r.replaced, float64(res.Replaced))
			r.runs++
			if pass == 0 {
				r.first = append(r.first, summarize(res))
			}
		}
		if !complete {
			break
		}
		p.wall, p.cpu, p.alloc = time.Since(t0), cpuTime()-cpu0, memAlloc()-alloc0
		r.passes = append(r.passes, p)
	}
	if tr != nil {
		tr.on.Store(false)
		r.spans = tr.stats()
	}
	// Determinism, outside timing: re-running one seed reproduces the
	// identical result.
	if again := summarize(core.NewEngine(cfgs[0]).RunLabeling()); !again.equal(r.first[0]) {
		r.check = fmt.Errorf("seed %d: re-run differs from the first run", cfgs[0].Seed)
	}
	return r
}

package main

import (
	"math"
	"strings"
)

// The per-layer metrics of a traced run, named after the modules. Each
// is measured from outside the program: spans around calls into a
// layer's public functions, bytes on connections the benchmark hands
// the program, and counters the program already exports. A layer a
// workload bypasses reads zero.

// spanSum adds up every span whose name starts with prefix.
func spanSum(spans map[string]*spanStat, prefix string) spanStat {
	var out spanStat
	for name, st := range spans {
		if strings.HasPrefix(name, prefix) {
			out.add(st)
		}
	}
	return out
}

// layerMetrics is every per-layer metric, in report order, with its unit.
var layerMetrics = []struct{ name, unit string }{
	{"loadgen.self_us_per_round", "us"},
	{"wire.self_us_per_op", "us"},
	{"wire.ops_per_frame", "ops"},
	{"wire.bytes_per_label", "B"},
	{"server.http.self_us_per_op", "us"},
	{"server.http.bytes_per_label", "B"},
	{"fabric.fetch_us", "us"},
	{"fabric.submit_us", "us"},
	{"fabric.enqueue_us_per_task", "us"},
	{"fabric.empty_fetch_ratio", "ratio"},
	{"fabric.steals_per_label", "count"},
	{"fabric.wasted_answer_ratio", "ratio"},
	{"fabric.router.self_us_per_op", "us"},
	{"fabric.router.remote_calls_per_op", "count"},
	{"fabric.router.hop_bytes_per_label", "B"},
	{"fabric.router.reconnects", "count"},
	{"journal.commit_lag_p99_ms", "ms"},
	{"journal.ops_per_commit", "ops"},
	{"journal.write_bytes_per_label", "B"},
	{"repl.barriers_per_label", "count"},
	{"repl.barrier_wait_p50_ms", "ms"},
	{"repl.barrier_wait_p99_ms", "ms"},
	{"repl.degraded_acks", "count"},
	{"repl.pulled_bytes_per_label", "B"},
	{"repl.bootstraps", "count"},
	{"core.run_ms", "ms"},
	{"core.replaced_per_run", "count"},
	{"trace.overhead_pct", "%"},
}

// addLayers reports every per-layer metric in order; a layer the
// workload bypasses has no value and reads zero. NaN marks a tail with
// too few samples: it is left out and named in rep.missing.
func addLayers(rep *report, v map[string]float64) {
	for _, m := range layerMetrics {
		if math.IsNaN(v[m.name]) {
			rep.missing = append(rep.missing, m.name+" (too few samples)")
			continue
		}
		rep.add(m.name, m.unit, v[m.name])
	}
}

// liveLayers derives the per-layer metrics of one traced segment, all but
// trace.overhead_pct, which needs the untraced segments too. q is the
// workload's tail percentile: replicated-routed, the only workload with
// barriers, waits about a thousand of them in a traced segment, so its
// barrier tail is pinned where its other tails are.
func liveLayers(topo *topology, res *liveResult, q float64) map[string]float64 {
	sp := res.spans
	st := &res.stats
	labels := float64(st.labels)
	d := func(f func(p probe) float64) float64 { return f(res.after) - f(res.before) }
	us := func(ns, n float64) float64 { return ratio(ns, n) / 1e3 }
	v := make(map[string]float64)

	round := spanSum(sp, "lane.round")
	v["loadgen.self_us_per_round"] = us(round.self, float64(round.count))

	laneBytes := d(func(p probe) float64 { return p.laneBytes })
	if frame := spanSum(sp, "wire.frame"); frame.count > 0 {
		v["wire.self_us_per_op"] = us(frame.self, float64(frame.items))
		v["wire.ops_per_frame"] = ratio(float64(frame.items), float64(frame.count))
		v["wire.bytes_per_label"] = laneBytes / labels
	}
	if req := spanSum(sp, "http.request"); req.count > 0 {
		v["server.http.self_us_per_op"] = us(req.self, float64(req.count))
		v["server.http.bytes_per_label"] = laneBytes / labels
	}

	fetch, submit, enq := spanSum(sp, "fabric.fetch"), spanSum(sp, "fabric.submit"), spanSum(sp, "fabric.enqueue")
	v["fabric.fetch_us"] = us(fetch.total, float64(fetch.count))
	v["fabric.submit_us"] = us(submit.total, float64(submit.count))
	v["fabric.enqueue_us_per_task"] = us(enq.total, float64(enq.items))
	v["fabric.empty_fetch_ratio"] = ratio(float64(st.emptyFetches), float64(st.fetches))
	v["fabric.steals_per_label"] = d(func(p probe) float64 { return p.steals }) / labels
	v["fabric.wasted_answer_ratio"] = ratio(float64(st.terminated), float64(st.accepted))

	if router := spanSum(sp, "router."); router.count > 0 {
		v["fabric.router.self_us_per_op"] = us(router.self, float64(router.count))
		v["fabric.router.remote_calls_per_op"] = ratio(float64(spanSum(sp, "fabric.").count), float64(router.count))
		v["fabric.router.hop_bytes_per_label"] = d(func(p probe) float64 { return p.hopBytes }) / labels
		v["fabric.router.reconnects"] = d(func(p probe) float64 { return p.reconnects })
	}

	if topo.dir != "" {
		v["journal.commit_lag_p99_ms"] = res.commitLag * 1e3
		v["journal.ops_per_commit"] = ratio(d(func(p probe) float64 { return p.commitOps }), d(func(p probe) float64 { return p.commits }))
		v["journal.write_bytes_per_label"] = d(func(p probe) float64 { return p.writeBytes }) / labels
	}

	if waits := sortedCopy(res.barrier); len(waits) > 0 {
		v["repl.barriers_per_label"] = float64(len(waits)) / labels
		v["repl.barrier_wait_p50_ms"] = quantile(waits, 0.5)
		if p99, ok := tail(waits, q); ok {
			v["repl.barrier_wait_p99_ms"] = p99
		} else {
			v["repl.barrier_wait_p99_ms"] = math.NaN()
		}
		v["repl.degraded_acks"] = d(func(p probe) float64 { return p.degraded })
		v["repl.pulled_bytes_per_label"] = d(func(p probe) float64 { return p.pulled }) / labels
		v["repl.bootstraps"] = d(func(p probe) float64 { return p.bootstraps })
	}
	return v
}

// simLayers derives paper-sim's per-layer metrics: only the simulator's
// own layer and the tracing overhead.
func simLayers(plain, traced []*simRun) map[string]float64 {
	var run spanStat
	var replaced []float64
	for _, r := range traced {
		s := spanSum(r.spans, "core.run")
		run.add(&s)
		replaced = append(replaced, r.replaced...)
	}
	rate := func(rs []*simRun) float64 {
		var labels, secs float64
		for _, r := range rs {
			for _, p := range r.passes {
				labels += float64(p.labels)
				secs += p.wall.Seconds()
			}
		}
		return labels / secs
	}
	return map[string]float64{
		"core.run_ms":           ratio(run.total, float64(run.count)) / 1e6,
		"core.replaced_per_run": mean(replaced),
		"trace.overhead_pct":    overheadPct(rate(plain), rate(traced)),
	}
}

// overheadPct is how much slower the traced half ran, in percent of the
// untraced half's throughput.
func overheadPct(untraced, traced float64) float64 {
	return 100 * ratio(untraced-traced, untraced)
}

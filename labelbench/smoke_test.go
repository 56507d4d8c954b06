package main

import (
	"strings"
	"testing"
	"time"
)

// bypassed lists, per live workload, the per-layer metrics that must read
// zero because the workload does not go through that layer.
var bypassed = map[string][]string{
	"pool-wire": {
		"server.http.self_us_per_op", "server.http.bytes_per_label",
		"fabric.router.self_us_per_op", "fabric.router.remote_calls_per_op", "fabric.router.hop_bytes_per_label",
		"journal.commit_lag_p99_ms", "journal.ops_per_commit", "journal.write_bytes_per_label",
		"repl.barriers_per_label", "repl.barrier_wait_p50_ms", "repl.pulled_bytes_per_label",
	},
	"durable-http": {
		"wire.self_us_per_op", "wire.ops_per_frame", "wire.bytes_per_label",
		"fabric.router.self_us_per_op", "fabric.router.remote_calls_per_op", "fabric.router.hop_bytes_per_label",
		"repl.barriers_per_label", "repl.barrier_wait_p50_ms", "repl.pulled_bytes_per_label",
	},
	"replicated-routed": {
		"server.http.self_us_per_op", "server.http.bytes_per_label",
	},
}

// exercised lists the per-layer metrics that must be positive.
var exercised = map[string][]string{
	"pool-wire":         {"loadgen.self_us_per_round", "wire.self_us_per_op", "wire.ops_per_frame", "wire.bytes_per_label", "fabric.fetch_us", "fabric.submit_us"},
	"durable-http":      {"loadgen.self_us_per_round", "server.http.self_us_per_op", "server.http.bytes_per_label", "fabric.fetch_us", "journal.ops_per_commit", "journal.commit_lag_p99_ms"},
	"replicated-routed": {"wire.ops_per_frame", "fabric.router.self_us_per_op", "fabric.router.remote_calls_per_op", "fabric.router.hop_bytes_per_label", "repl.barriers_per_label", "repl.barrier_wait_p50_ms", "repl.pulled_bytes_per_label"},
	"paper-sim":         {"core.run_ms"},
}

// smokeWindow is long enough for each workload to label something: a
// replicated-routed batch alone takes seconds to enqueue.
var smokeWindow = map[string]time.Duration{
	"pool-wire": time.Second, "durable-http": time.Second, "replicated-routed": 8 * time.Second, "paper-sim": time.Second,
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for seconds")
	}
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(name, 7, smokeWindow[name], t.TempDir(), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.correct {
				t.Fatalf("%s traced=%v: correctness check failed", name, traced)
			}
			// A seconds-long window may hold too few samples for a tail;
			// nothing else may go unmeasured.
			for _, m := range rep.missing {
				if !strings.Contains(m, "_p99_") {
					t.Errorf("%s traced=%v: not measured: %s", name, traced, m)
				}
			}
			if name != "replicated-routed" && rep.failed != 0 {
				t.Errorf("%s traced=%v: %d failed ops", name, traced, rep.failed)
			}
			got := make(map[string]float64)
			for _, m := range rep.metrics {
				got[m.name] = m.value
			}
			if !traced {
				for _, m := range []string{"labels_per_s", "round_p50_us", "task_p50_ms", "batch_p50_ms", "cpu_us_per_label", "usd_per_label", "setup_s"} {
					if got[m] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m, got[m])
					}
				}
				continue
			}
			if len(got)+len(rep.missing) != len(layerMetrics) {
				t.Errorf("%s: %d per-layer metrics and %d missing, want %d", name, len(got), len(rep.missing), len(layerMetrics))
			}
			for _, m := range bypassed[name] {
				if got[m] != 0 {
					t.Errorf("%s bypasses %s but it reads %v", name, m, got[m])
				}
			}
			for _, m := range exercised[name] {
				if got[m] <= 0 {
					t.Errorf("%s exercises %s but it reads %v", name, m, got[m])
				}
			}
		}
	}
}

package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// metricValue extracts one series' value from an exposition page.
func metricValue(t *testing.T, page, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("series %s: unparseable value in %q: %v", series, line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in page:\n%s", series, page)
	return 0
}

// A multi-shard fabric must serve ONE fabric-wide latency summary whose
// quantiles are computed over the union of every shard's observations —
// t-digest merging is what makes that exact enough to be operator-grade.
// 100k lognormal samples split round-robin across 8 shards: the merged
// p50/p95/p99 must land within 5% relative error of the exact sample
// quantiles, with no per-shard quantile series anywhere on the page.
func TestFabricMergedQuantileAccuracy(t *testing.T) {
	const n = 100_000
	const shards = 8
	fab, cl := newTestFabric(t, server.Config{}, shards)

	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, n)
	for i := range xs {
		v := math.Exp(rng.NormFloat64()) // lognormal: heavy-tailed like real service times
		xs[i] = v
		fab.Shards()[i%shards].RecordLatencySample(v)
	}
	sort.Float64s(xs)

	page, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(page, `shard="`) {
		t.Fatalf("multi-shard page still carries per-shard series:\n%s", page)
	}
	if c := strings.Count(page, "# HELP clamshell_latency_per_record_seconds "); c != 1 {
		t.Fatalf("HELP for the latency family appears %d times, want 1", c)
	}
	if got := metricValue(t, page, "clamshell_latency_per_record_seconds_count"); got != n {
		t.Fatalf("merged count = %g, want %d", got, n)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := xs[int(q*float64(n-1))]
		series := fmt.Sprintf("clamshell_latency_per_record_seconds{quantile=%q}", fmt.Sprintf("%g", q))
		got := metricValue(t, page, series)
		if rel := math.Abs(got-exact) / exact; rel > 0.05 {
			t.Errorf("merged q%g = %g, exact %g (rel err %.3f > 0.05)", q, got, exact, rel)
		}
	}
}

// lintExposition validates the scrape page against the exposition format's
// structural rules: HELP and TYPE exactly once per family, no duplicate
// series, every sample line parseable, every series under a declared
// family.
func lintExposition(t *testing.T, page string) {
	t.Helper()
	helps := map[string]bool{}
	types := map[string]bool{}
	series := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			if helps[name] {
				t.Errorf("duplicate HELP for %s", name)
			}
			helps[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			name := strings.Fields(line)[2]
			if types[name] {
				t.Errorf("duplicate TYPE for %s", name)
			}
			types[name] = true
		case strings.HasPrefix(line, "#"), line == "":
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Errorf("unparseable sample line %q", line)
				continue
			}
			if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
				t.Errorf("sample %q: bad value: %v", line, err)
			}
			key := line[:sp]
			if series[key] {
				t.Errorf("duplicate series %q", key)
			}
			series[key] = true
			fam := key
			if i := strings.IndexByte(fam, '{'); i >= 0 {
				fam = fam[:i]
			}
			if !helps[fam] {
				// Summary sub-series: name_sum / name_count roll up to name.
				base := strings.TrimSuffix(strings.TrimSuffix(fam, "_sum"), "_count")
				if !helps[base] {
					t.Errorf("series %q has no HELP/TYPE header", key)
				}
			}
		}
	}
}

// The full scrape surface — HTTP ops, wire ops, steals, backlog, journal
// telemetry — stays well-formed with every plane active, and the
// /api/metricsz alias serves an equally valid page.
func TestMetricsExposition(t *testing.T) {
	const shards = 4
	fab, cl := newTestFabric(t, server.Config{WorkerTimeout: time.Hour}, shards)
	if err := fab.OpenPersist(PersistOptions{Dir: t.TempDir(), Fsync: "group"}); err != nil {
		t.Fatal(err)
	}
	defer fab.ClosePersist()

	// HTTP plane: join, heartbeat, enqueue, fetch (a steal: the worker's
	// home shard 0 is empty, the task lands on shard 1), submit, result,
	// plus unfetched backlog so the depth gauge has rows.
	w1, err := cl.Join("http-worker")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Heartbeat(w1); err != nil {
		t.Fatal(err)
	}
	ids, err := cl.SubmitTasks([]server.TaskSpec{
		{Records: []string{recordFor(t, 1, shards)}, Classes: 2, Quorum: 1},
		{Records: []string{recordFor(t, 2, shards)}, Classes: 2, Quorum: 1},
		{Records: []string{recordFor(t, 3, shards)}, Classes: 2, Quorum: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, ok, err := cl.FetchTask(w1)
	if err != nil || !ok {
		t.Fatalf("fetch: ok=%v err=%v", ok, err)
	}
	if _, _, err := cl.Submit(w1, a.TaskID, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Result(ids[0]); err != nil {
		t.Fatal(err)
	}

	// Wire plane: the same core over the binary transport.
	cliConn, srvConn := net.Pipe()
	go wire.NewServer(fab).ServeConn(srvConn)
	wc, err := wire.NewClient(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := wc.Join("wire-worker")
	if err != nil {
		t.Fatal(err)
	}
	if a, ok, err := wc.FetchTask(w2); err != nil {
		t.Fatal(err)
	} else if ok {
		if _, _, err := wc.Submit(w2, a.TaskID, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	wc.Close()

	page, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	lintExposition(t, page)
	for _, want := range []string{
		`clamshell_ops_total{transport="http",op="join"} 1`,
		`clamshell_ops_total{transport="http",op="fetch"} 1`,
		`clamshell_ops_total{transport="wire",op="join"} 1`,
		`clamshell_op_latency_seconds{transport="http",op="submit",quantile="0.5"}`,
		// Both fetches stole: each worker's home shard held no local work.
		"clamshell_steals_total 2",
		"clamshell_handout_wait_seconds_count 2",
		"clamshell_wire_decode_seconds_count",
		`clamshell_backlog_depth{priority="0"}`,
		"clamshell_journal_commit_lag_seconds_count",
		"clamshell_journal_batch_ops_count",
		"clamshell_journal_dirty_age_seconds",
		"clamshell_journal_retained_records",
		"clamshell_expired_workers_total 0",
		"clamshell_tallies_aged_total 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("page:\n%s", page)
	}

	// The historical alias serves an equally well-formed page.
	alias, err := cl.Metricsz()
	if err != nil {
		t.Fatal(err)
	}
	lintExposition(t, alias)
}

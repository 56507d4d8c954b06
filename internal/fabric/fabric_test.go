package fabric

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/hashring"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
)

// recordFor finds a record string whose content hash places a task on the
// given shard of n.
func recordFor(t *testing.T, shard, n int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		rec := fmt.Sprintf("rec-%d", i)
		if hashring.Jump(hashring.HashStrings([]string{rec}), n) == shard {
			return rec
		}
	}
	t.Fatal("no record found for shard")
	return ""
}

func newTestFabric(t *testing.T, cfg server.Config, n int) (*Fabric, *server.Client) {
	t.Helper()
	t.Cleanup(servertest.VerifyNone(t))
	if cfg.WorkerTimeout == 0 {
		cfg.WorkerTimeout = time.Hour
	}
	fab := New(cfg, n)
	ts := httptest.NewServer(fab)
	t.Cleanup(ts.Close)
	return fab, server.NewClient(ts.URL)
}

// Worker ids stripe across shards: round-robin pinning plus per-stripe
// allocation yields globally sequential ids 1,2,3,…
func TestWorkerPinningSequentialIDs(t *testing.T) {
	_, cl := newTestFabric(t, server.Config{}, 4)
	for want := 1; want <= 8; want++ {
		id, err := cl.Join(fmt.Sprintf("w%d", want))
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("join #%d got id %d", want, id)
		}
	}
}

// Identical content always lands on the same shard (consistent hashing):
// the task ids share a stripe.
func TestTaskPlacementConsistent(t *testing.T) {
	const n = 4
	_, cl := newTestFabric(t, server.Config{}, n)
	spec := server.TaskSpec{Records: []string{"same", "content"}, Quorum: 1}
	ids, err := cl.SubmitTasks([]server.TaskSpec{spec, spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		if (id-1)%n != (ids[0]-1)%n {
			t.Fatalf("same content split across shards: ids %v", ids)
		}
	}
}

// A worker whose home shard has no work steals from other shards.
func TestWorkStealing(t *testing.T) {
	const n = 2
	_, cl := newTestFabric(t, server.Config{}, n)
	w1, _ := cl.Join("home-shard-0")
	if w1 != 1 {
		t.Fatalf("w1 = %d", w1)
	}
	// Task on shard 1; w1 is homed on shard 0.
	rec := recordFor(t, 1, n)
	ids, err := cl.SubmitTasks([]server.TaskSpec{{Records: []string{rec}, Quorum: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a, ok, err := cl.FetchTask(w1)
	if err != nil || !ok {
		t.Fatalf("steal fetch: ok=%v err=%v", ok, err)
	}
	if a.TaskID != ids[0] {
		t.Fatalf("stole task %d, want %d", a.TaskID, ids[0])
	}
	// Re-delivery of a stolen assignment crosses shards too.
	a2, ok, err := cl.FetchTask(w1)
	if err != nil || !ok || a2.TaskID != a.TaskID {
		t.Fatalf("redeliver stolen: %+v ok=%v err=%v", a2, ok, err)
	}
	acc, term, err := cl.Submit(w1, a.TaskID, []int{1})
	if err != nil || !acc || term {
		t.Fatalf("submit stolen: acc=%v term=%v err=%v", acc, term, err)
	}
	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st["complete"] != 1 {
		t.Fatalf("complete = %d, want 1", st["complete"])
	}
	res, err := cl.Result(a.TaskID)
	if err != nil || res.State != "complete" || res.Consensus[0] != 1 {
		t.Fatalf("result after cross-shard submit: %+v err=%v", res, err)
	}
}

// Starved tasks anywhere in the fabric beat speculative duplicates
// anywhere: a stealing worker passes over a nearer shard's speculative
// candidate for a farther shard's starved task.
func TestStealStarvedBeforeSpeculative(t *testing.T) {
	const n = 3
	_, cl := newTestFabric(t, server.Config{SpeculationLimit: 1}, n)
	w1, _ := cl.Join("shard0")
	w2, _ := cl.Join("shard1")
	if w1 != 1 || w2 != 2 {
		t.Fatalf("ids %d %d", w1, w2)
	}
	// Task A on shard 1 (w2's home), task B on shard 2.
	recA, recB := recordFor(t, 1, n), recordFor(t, 2, n)
	ids, err := cl.SubmitTasks([]server.TaskSpec{
		{Records: []string{recA}, Quorum: 1},
		{Records: []string{recB}, Quorum: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	taskA, taskB := ids[0], ids[1]
	// w2 takes A locally: A becomes a speculative candidate, B stays
	// starved.
	a, ok, _ := cl.FetchTask(w2)
	if !ok || a.TaskID != taskA {
		t.Fatalf("w2 fetch: %+v, want task %d", a, taskA)
	}
	// w1 steals: ring order from shard 0 would visit shard 1 (speculative
	// A) before shard 2 (starved B); the starved-first pass must win.
	b, ok, _ := cl.FetchTask(w1)
	if !ok || b.TaskID != taskB {
		t.Fatalf("w1 stole task %d, want starved task %d", b.TaskID, taskB)
	}
	// Now only speculation remains. w3 is homed on shard 2, where B is
	// in flight: the local speculative duplicate wins before any steal.
	w3, _ := cl.Join("shard2")
	c, ok, _ := cl.FetchTask(w3)
	if !ok || c.TaskID != taskB {
		t.Fatalf("w3 local speculative got %+v, want task %d", c, taskB)
	}
	// w4 is homed on shard 0, which is empty: its speculative duplicate
	// must be stolen cross-shard (A on shard 1).
	w4, _ := cl.Join("shard0-again")
	d, ok, _ := cl.FetchTask(w4)
	if !ok || d.TaskID != taskA {
		t.Fatalf("w4 speculative steal got %+v, want task %d", d, taskA)
	}
	// First answer on A wins; the duplicate is terminated but paid.
	if acc, term, _ := cl.Submit(w2, taskA, []int{0}); !acc || term {
		t.Fatalf("primary A submit: acc=%v term=%v", acc, term)
	}
	if acc, term, _ := cl.Submit(w4, taskA, []int{1}); acc || !term {
		t.Fatalf("duplicate A submit: acc=%v term=%v", acc, term)
	}
	costs, err := cl.Costs()
	if err != nil {
		t.Fatal(err)
	}
	if costs["terminated_pay_dollars"] <= 0 {
		t.Fatalf("terminated work unpaid: %v", costs)
	}
}

// A worker leaving (or expiring) with a stolen assignment releases the
// task on its owning shard so another worker can take it.
func TestOrphanedStolenAssignmentReleased(t *testing.T) {
	const n = 2
	_, cl := newTestFabric(t, server.Config{}, n)
	w1, _ := cl.Join("thief")
	rec := recordFor(t, 1, n)
	ids, _ := cl.SubmitTasks([]server.TaskSpec{{Records: []string{rec}, Quorum: 1}})
	a, ok, _ := cl.FetchTask(w1)
	if !ok || a.TaskID != ids[0] {
		t.Fatalf("steal failed: %+v", a)
	}
	if err := cl.Leave(w1); err != nil {
		t.Fatal(err)
	}
	w2, _ := cl.Join("heir")
	b, ok, err := cl.FetchTask(w2)
	if err != nil || !ok || b.TaskID != ids[0] {
		t.Fatalf("orphaned task not released: %+v ok=%v err=%v", b, ok, err)
	}
}

// Stale workers expire fabric-wide on the next poll, and their stolen
// assignments return to the owning shard's queue.
func TestExpiryReleasesStolenWork(t *testing.T) {
	const n = 2
	now := time.Unix(1_700_000_000, 0)
	cfg := server.Config{
		WorkerTimeout: time.Minute,
		Now:           func() time.Time { return now },
	}
	fab := New(cfg, n)
	ts := httptest.NewServer(fab)
	defer ts.Close()
	cl := server.NewClient(ts.URL)

	w1, _ := cl.Join("sleepy")
	rec := recordFor(t, 1, n)
	ids, _ := cl.SubmitTasks([]server.TaskSpec{{Records: []string{rec}, Quorum: 1}})
	if a, ok, _ := cl.FetchTask(w1); !ok || a.TaskID != ids[0] {
		t.Fatalf("steal failed: %+v", a)
	}
	now = now.Add(2 * time.Minute) // sleepy stops heartbeating
	w2, _ := cl.Join("fresh")
	b, ok, err := cl.FetchTask(w2) // triggers expiry on w2's home shard…
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		// …but sleepy is homed on shard 0, fresh on shard 1: sleepy expires
		// when shard 0 next runs maintenance (any status/poll touching it).
		if _, err := cl.Status(); err != nil {
			t.Fatal(err)
		}
		b, ok, err = cl.FetchTask(w2)
		if err != nil || !ok {
			t.Fatalf("task still held by expired worker: ok=%v err=%v", ok, err)
		}
	}
	if b.TaskID != ids[0] {
		t.Fatalf("got task %d, want %d", b.TaskID, ids[0])
	}
	st, _ := cl.Status()
	if st["workers"] != 1 {
		t.Fatalf("expired worker still counted: %v", st)
	}
}

// Snapshots resize: state taken from an 8-shard fabric restores onto a
// 3-shard fabric and onto a 1-shard fabric, preserving results,
// counters and id uniqueness.
func TestSnapshotResize(t *testing.T) {
	_, cl := newTestFabric(t, server.Config{}, 8)
	var specs []server.TaskSpec
	for i := 0; i < 20; i++ {
		specs = append(specs, server.TaskSpec{
			Records: []string{fmt.Sprintf("item-%d", i)},
			Quorum:  1,
			Classes: 2,
		})
	}
	ids, err := cl.SubmitTasks(specs)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := cl.Join("labeler")
	for done := 0; done < 10; done++ {
		a, ok, err := cl.FetchTask(w)
		if err != nil || !ok {
			t.Fatalf("fetch %d: ok=%v err=%v", done, ok, err)
		}
		if acc, _, err := cl.Submit(w, a.TaskID, []int{a.TaskID % 2}); err != nil || !acc {
			t.Fatalf("submit: %v", err)
		}
	}
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantStatus, _ := cl.Status()

	for _, target := range []int{3, 1} {
		fab2, cl2 := newTestFabric(t, server.Config{}, target)
		if err := fab2.Restore(snap); err != nil {
			t.Fatalf("restore onto %d shards: %v", target, err)
		}
		st, err := cl2.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st["tasks"] != wantStatus["tasks"] || st["complete"] != wantStatus["complete"] {
			t.Fatalf("restored status %v, want tasks/complete from %v", st, wantStatus)
		}
		// Completed results survive with their consensus.
		completed := 0
		for _, id := range ids {
			res, err := cl2.Result(id)
			if err != nil {
				t.Fatalf("result %d: %v", id, err)
			}
			if res.State == "complete" {
				completed++
				if res.Consensus[0] != id%2 {
					t.Fatalf("task %d consensus %v, want %d", id, res.Consensus, id%2)
				}
			}
		}
		if completed != 10 {
			t.Fatalf("%d completed tasks after restore, want 10", completed)
		}
		// New ids never collide with restored ones.
		newIDs, err := cl2.SubmitTasks([]server.TaskSpec{{Records: []string{"new"}, Quorum: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, old := range ids {
			if newIDs[0] == old {
				t.Fatalf("id %d reissued after restore", old)
			}
		}
	}
}

// The fabric's healthz and metricsz stay serviceable with many shards.
func TestFabricMetricsAggregation(t *testing.T) {
	_, cl := newTestFabric(t, server.Config{}, 4)
	w, _ := cl.Join("w")
	ids, _ := cl.SubmitTasks([]server.TaskSpec{
		{Records: []string{"x"}, Quorum: 1},
		{Records: []string{"y"}, Quorum: 1},
	})
	for range ids {
		a, ok, _ := cl.FetchTask(w)
		if !ok {
			t.Fatal("no task")
		}
		cl.Submit(w, a.TaskID, []int{0})
	}
	page, err := cl.Metricsz()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"clamshell_tasks_total 2",
		"clamshell_tasks_complete 2",
		"clamshell_workers 1",
		"clamshell_latency_per_record_seconds_count 2",
	} {
		if !contains(page, want) {
			t.Errorf("metricsz missing %q:\n%s", want, page)
		}
	}
}

func contains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

package fabric

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/hashring"
	"github.com/clamshell/clamshell/internal/server"
)

// recordOnShard returns a task spec whose consistent-hash placement lands
// on the given shard index.
func recordOnShard(t *testing.T, f *Fabric, shard int) server.TaskSpec {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		spec := server.TaskSpec{
			Records: []string{fmt.Sprintf("probe-%d-%d", shard, i)},
			Classes: 2,
			Quorum:  1,
		}
		if hashring.Jump(hashring.HashStrings(spec.Records), f.NumShards()) == shard {
			return spec
		}
	}
	t.Fatalf("no record hashing to shard %d", shard)
	return server.TaskSpec{}
}

// A worker holding a stolen assignment whose payload disappears (the owning
// shard was restored away from under it) must not wedge into 204s forever:
// the fetch path clears the dangling assignment and hands out fresh work.
func TestFetchRecoversFromDanglingSteal(t *testing.T) {
	fab := New(server.Config{WorkerTimeout: time.Hour}, 2)
	ts := httptest.NewServer(fab)
	defer ts.Close()
	cl := server.NewClient(ts.URL)

	wid, err := cl.Join("thief")
	if err != nil {
		t.Fatal(err)
	}
	// The worker's home shard (0) has no tasks; the only task lives on
	// shard 1, so the fetch steals it cross-shard.
	stolenIDs, err := cl.SubmitTasks([]server.TaskSpec{recordOnShard(t, fab, 1)})
	if err != nil {
		t.Fatal(err)
	}
	a, ok, err := cl.FetchTask(wid)
	if err != nil || !ok || a.TaskID != stolenIDs[0] {
		t.Fatalf("steal fetch: a=%+v ok=%v err=%v", a, ok, err)
	}

	// The task's shard is restored to empty out from under the assignment:
	// the payload the worker would re-fetch is gone, but the worker (homed
	// on shard 0) still holds the in-flight assignment.
	fab.Shards()[1].ImportState(server.SnapshotState{Version: server.SnapshotVersion})

	// Fresh work is available on the worker's own shard. Before the fix the
	// dangling assignment pinned every poll to the vanished task and the
	// worker 204'd forever; now the fetch clears it and picks the new task.
	freshIDs, err := cl.SubmitTasks([]server.TaskSpec{recordOnShard(t, fab, 0)})
	if err != nil {
		t.Fatal(err)
	}
	a, ok, err = cl.FetchTask(wid)
	if err != nil || !ok {
		t.Fatalf("fetch after payload loss: ok=%v err=%v (worker wedged)", ok, err)
	}
	if a.TaskID != freshIDs[0] {
		t.Fatalf("recovered fetch returned task %d, want fresh task %d", a.TaskID, freshIDs[0])
	}
	if acc, _, err := cl.Submit(wid, a.TaskID, []int{0}); err != nil || !acc {
		t.Fatalf("submit after recovery: accepted=%v err=%v", acc, err)
	}
}

// A replayed submit whose worker and task live on different shards must be
// re-acknowledged without inflating the worker's completion stats or the
// fabric-wide pay.
func TestFabricSubmitReplayIdempotent(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	fab := New(server.Config{WorkerTimeout: time.Hour, Now: func() time.Time { return now }}, 2)
	ts := httptest.NewServer(fab)
	defer ts.Close()
	cl := server.NewClient(ts.URL)

	wid, _ := cl.Join("replayer") // homed on shard 0
	ids, err := cl.SubmitTasks([]server.TaskSpec{recordOnShard(t, fab, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.FetchTask(wid); !ok {
		t.Fatal("no assignment")
	}
	if acc, _, _ := cl.Submit(wid, ids[0], []int{1}); !acc {
		t.Fatal("submit rejected")
	}
	base, _ := cl.Costs()
	for i := 0; i < 3; i++ {
		acc, term, err := cl.Submit(wid, ids[0], []int{1})
		if err != nil || !acc || term {
			t.Fatalf("replay %d: accepted=%v terminated=%v err=%v", i, acc, term, err)
		}
	}
	costs, _ := cl.Costs()
	if costs["work_pay_dollars"] != base["work_pay_dollars"] ||
		costs["terminated_pay_dollars"] != 0 {
		t.Fatalf("pay moved on replay: %v -> %v", base, costs)
	}
	ws, err := cl.Workers()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].Completed != 1 {
		t.Fatalf("worker stats after replay: %+v, want one worker with 1 completion", ws)
	}
}

// Fabric query parsing must reject trailing garbage identically to the
// 1-shard protocol.
func TestFabricBadQueryParamsRejected(t *testing.T) {
	fab := New(server.Config{WorkerTimeout: time.Hour}, 4)
	ts := httptest.NewServer(fab)
	defer ts.Close()
	cl := server.NewClient(ts.URL)
	for _, path := range []string{"/api/task?worker_id=1abc", "/api/result?task_id=7.5"} {
		r, err := cl.HTTP.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != 400 {
			t.Errorf("GET %s: status %d, want 400", path, r.StatusCode)
		}
	}
}

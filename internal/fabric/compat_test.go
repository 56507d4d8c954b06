package fabric

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/server"
)

// A 1-shard fabric speaks the historical single-pool protocol byte for
// byte: same status codes, bodies, error strings and snapshot wire format.
// testdata/single_shard_compat.golden records that protocol as the
// original standalone single-mutex server served it, for a scripted
// conversation covering every endpoint, the straggler termination race,
// pool maintenance retirement and snapshot/restore, under a fake clock.
// The fixture is a record of that server, so it is never regenerated from
// the fabric: a diff here is a protocol change.

const compatGolden = "testdata/single_shard_compat.golden"

type compatStep struct {
	name    string
	method  string
	path    string
	body    string
	advance time.Duration // clock advance before the request
}

var compatScript = []compatStep{
	{name: "healthz", method: "GET", path: "/api/healthz"},
	{name: "ui", method: "GET", path: "/"},
	{name: "status empty", method: "GET", path: "/api/status"},
	{name: "join alice", method: "POST", path: "/api/join", body: `{"name":"alice"}`},
	{name: "join bob", method: "POST", path: "/api/join", body: `{"name":"bob"}`},
	{name: "join carol", method: "POST", path: "/api/join", body: `{"name":"carol"}`},
	{name: "join bad body", method: "POST", path: "/api/join", body: `{`},
	{name: "heartbeat", method: "POST", path: "/api/heartbeat", body: `{"worker_id":1}`},
	{name: "heartbeat unknown", method: "POST", path: "/api/heartbeat", body: `{"worker_id":99}`},
	{name: "heartbeat missing field", method: "POST", path: "/api/heartbeat", body: `{"nope":1}`},
	{name: "fetch no tasks", method: "GET", path: "/api/task?worker_id=1"},
	{name: "fetch bad query", method: "GET", path: "/api/task"},
	{name: "fetch trailing garbage", method: "GET", path: "/api/task?worker_id=1abc"},
	{name: "tasks empty batch", method: "POST", path: "/api/tasks", body: `{"tasks":[]}`},
	{name: "tasks no records", method: "POST", path: "/api/tasks", body: `{"tasks":[{"records":[]}]}`},
	{name: "tasks bad body", method: "POST", path: "/api/tasks", body: `}`},
	{name: "submit batch", method: "POST", path: "/api/tasks",
		body: `{"tasks":[{"records":["r1a","r1b"],"classes":2,"quorum":1},{"records":["r2a"],"classes":3,"quorum":2,"priority":5},{"records":["r3a"],"classes":2,"quorum":1}]}`},
	{name: "result unassigned", method: "GET", path: "/api/result?task_id=1"},
	{name: "result unknown", method: "GET", path: "/api/result?task_id=77"},
	{name: "result trailing garbage", method: "GET", path: "/api/result?task_id=1x"},
	// Priority 5 task (id 2) is handed out first.
	{name: "fetch alice priority", method: "GET", path: "/api/task?worker_id=1", advance: time.Second},
	{name: "fetch alice redeliver", method: "GET", path: "/api/task?worker_id=1"},
	// Quorum 2: bob gets the same task as a primary answer slot.
	{name: "fetch bob quorum", method: "GET", path: "/api/task?worker_id=2"},
	{name: "fetch carol fifo", method: "GET", path: "/api/task?worker_id=3"},
	{name: "submit alice", method: "POST", path: "/api/submit", advance: time.Second,
		body: `{"worker_id":1,"task_id":2,"labels":[2]}`},
	// A client retry after a lost response: re-acknowledged, nothing
	// recounted (the costs and status steps below pin that).
	{name: "submit alice replay", method: "POST", path: "/api/submit",
		body: `{"worker_id":1,"task_id":2,"labels":[2]}`},
	{name: "submit bad label count", method: "POST", path: "/api/submit",
		body: `{"worker_id":2,"task_id":2,"labels":[1,1]}`},
	{name: "submit label out of range", method: "POST", path: "/api/submit",
		body: `{"worker_id":2,"task_id":2,"labels":[3]}`},
	{name: "submit unknown task", method: "POST", path: "/api/submit",
		body: `{"worker_id":2,"task_id":66,"labels":[0]}`},
	{name: "submit unknown worker", method: "POST", path: "/api/submit",
		body: `{"worker_id":55,"task_id":2,"labels":[0]}`},
	{name: "submit bob", method: "POST", path: "/api/submit", advance: time.Second,
		body: `{"worker_id":2,"task_id":2,"labels":[2]}`},
	{name: "result complete", method: "GET", path: "/api/result?task_id=2"},
	// Alice takes task 1; carol (on task 3) finishes; bob speculates on
	// task 1, then loses the race to alice — a paid termination.
	{name: "fetch alice task1", method: "GET", path: "/api/task?worker_id=1"},
	{name: "submit carol", method: "POST", path: "/api/submit", advance: time.Second,
		body: `{"worker_id":3,"task_id":3,"labels":[1]}`},
	{name: "fetch bob speculative", method: "GET", path: "/api/task?worker_id=2"},
	{name: "submit alice task1", method: "POST", path: "/api/submit", advance: time.Second,
		body: `{"worker_id":1,"task_id":1,"labels":[0,1]}`},
	{name: "submit bob terminated", method: "POST", path: "/api/submit",
		body: `{"worker_id":2,"task_id":1,"labels":[1,1]}`},
	{name: "submit bob terminated replay", method: "POST", path: "/api/submit",
		body: `{"worker_id":2,"task_id":1,"labels":[1,1]}`},
	{name: "status mid", method: "GET", path: "/api/status"},
	{name: "workers mid", method: "GET", path: "/api/workers"},
	{name: "costs mid", method: "GET", path: "/api/costs", advance: 30 * time.Second},
	{name: "consensus majority", method: "GET", path: "/api/consensus"},
	{name: "consensus em", method: "GET", path: "/api/consensus?estimator=em"},
	{name: "consensus bad", method: "GET", path: "/api/consensus?estimator=wat"},
	// KOS needs binary tasks; task 2 has 3 classes.
	{name: "consensus kos rejected", method: "GET", path: "/api/consensus?estimator=kos"},
	{name: "metricsz", method: "GET", path: "/api/metricsz"},
	// Retire carol: three slow completions (2s threshold, 3 records
	// each fetched-to-submitted over 30s).
	{name: "retire tasks", method: "POST", path: "/api/tasks",
		body: `{"tasks":[{"records":["s1"],"quorum":1},{"records":["s2"],"quorum":1},{"records":["s3"],"quorum":1}]}`},
	{name: "retire fetch 1", method: "GET", path: "/api/task?worker_id=3"},
	{name: "retire submit 1", method: "POST", path: "/api/submit", advance: 30 * time.Second,
		body: `{"worker_id":3,"task_id":4,"labels":[0]}`},
	{name: "retire fetch 2", method: "GET", path: "/api/task?worker_id=3"},
	{name: "retire submit 2", method: "POST", path: "/api/submit", advance: 30 * time.Second,
		body: `{"worker_id":3,"task_id":5,"labels":[0]}`},
	{name: "retire fetch 3", method: "GET", path: "/api/task?worker_id=3"},
	{name: "retire submit 3", method: "POST", path: "/api/submit", advance: 30 * time.Second,
		body: `{"worker_id":3,"task_id":6,"labels":[0]}`},
	{name: "fetch retired gone", method: "GET", path: "/api/task?worker_id=3"},
	{name: "status retired", method: "GET", path: "/api/status"},
	{name: "snapshot", method: "GET", path: "/api/snapshot"},
	{name: "leave bob", method: "POST", path: "/api/leave", body: `{"worker_id":2}`},
	{name: "leave unknown ok", method: "POST", path: "/api/leave", body: `{"worker_id":42}`},
	{name: "workers after leave", method: "GET", path: "/api/workers"},
	{name: "restore bad body", method: "POST", path: "/api/restore", body: `nope`},
	{name: "restore bad version", method: "POST", path: "/api/restore", body: `{"version":9}`},
}

// compatAfterRestore are the reads replayed after restoring the recorded
// snapshot.
var compatAfterRestore = []string{"/api/status", "/api/consensus", "/api/result?task_id=1", "/api/costs"}

// compatRecord is one recorded response.
type compatRecord struct {
	name        string
	status      int
	contentType string
	body        string
}

// compatConfig is the server config the script runs under.
func compatConfig(clock func() time.Time) server.Config {
	return server.Config{
		SpeculationLimit:     1,
		WorkerTimeout:        10 * time.Minute,
		MaintenanceThreshold: 2 * time.Second,
		Now:                  clock,
	}
}

// runCompatScript drives the script through h, then restores snap (the
// recorded snapshot) and replays the after-restore reads.
func runCompatScript(h http.Handler, advance func(time.Duration), snap string) []compatRecord {
	do := func(name, method, path, body string) compatRecord {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return compatRecord{name, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
	}
	var out []compatRecord
	for _, st := range compatScript {
		advance(st.advance)
		out = append(out, do(st.name, st.method, st.path, st.body))
	}
	out = append(out, do("cross-restore", "POST", "/api/restore", snap))
	for _, path := range compatAfterRestore {
		out = append(out, do("after restore "+path, "GET", path, ""))
	}
	return out
}

// The golden format is one entry per response:
//
//	### <name>
//	<status> <body length> <content type>
//	<body bytes>
//
// with a newline after the body.
func parseCompatGolden(data string) ([]compatRecord, error) {
	var out []compatRecord
	for len(data) > 0 {
		name, rest, ok := strings.Cut(data, "\n")
		if !ok || !strings.HasPrefix(name, "### ") {
			return nil, fmt.Errorf("entry %d: bad name line %q", len(out), name)
		}
		head, rest, ok := strings.Cut(rest, "\n")
		if !ok {
			return nil, fmt.Errorf("%s: missing header", name)
		}
		var r compatRecord
		var n int
		f := strings.SplitN(head, " ", 3)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s: bad header %q", name, head)
		}
		if _, err := fmt.Sscanf(f[0]+" "+f[1], "%d %d", &r.status, &n); err != nil {
			return nil, fmt.Errorf("%s: bad header %q: %v", name, head, err)
		}
		if n+1 > len(rest) || rest[n] != '\n' {
			return nil, fmt.Errorf("%s: body length %d overruns the fixture", name, n)
		}
		r.name, r.contentType, r.body = name[len("### "):], f[2], rest[:n]
		out = append(out, r)
		data = rest[n+1:]
	}
	return out, nil
}

func TestFabricSingleShardByteCompat(t *testing.T) {
	raw, err := os.ReadFile(compatGolden)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseCompatGolden(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	var snap string
	for _, r := range want {
		if r.name == "snapshot" {
			snap = r.body
		}
	}
	if snap == "" {
		t.Fatal("golden has no snapshot step")
	}

	now := time.Unix(1_700_000_000, 0)
	fab := New(compatConfig(func() time.Time { return now }), 1)
	got := runCompatScript(fab, func(d time.Duration) { now = now.Add(d) }, snap)

	if len(got) != len(want) {
		t.Fatalf("script has %d responses, golden %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.name != w.name {
			t.Fatalf("response %d is %q, golden has %q", i, g.name, w.name)
		}
		if g.status != w.status {
			t.Errorf("%s: status %d, golden %d", g.name, g.status, w.status)
		}
		if g.contentType != w.contentType {
			t.Errorf("%s: content-type %q, golden %q", g.name, g.contentType, w.contentType)
		}
		if g.body != w.body {
			t.Errorf("%s: body diverged\nfabric: %q\ngolden: %q", g.name, g.body, w.body)
		}
	}
}

// The fabric's 410 for retired workers and 204 for empty queues must
// survive a restore (workers drop, queue state stays).
func TestFabricRestoreDropsWorkers(t *testing.T) {
	fab := New(server.Config{WorkerTimeout: time.Hour}, 4)
	ts := httptest.NewServer(fab)
	defer ts.Close()
	cl := server.NewClient(ts.URL)

	id, err := cl.Join("w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitTasks([]server.TaskSpec{{Records: []string{"a"}, Quorum: 1}}); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.FetchTask(id); err == nil {
		t.Fatal("fetch after restore should fail: workers are dropped")
	}
	id2, err := cl.Join("w2")
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restored fabric reissued worker id %d", id)
	}
	a, ok, err := cl.FetchTask(id2)
	if err != nil || !ok {
		t.Fatalf("restored task not routable: ok=%v err=%v", ok, err)
	}
	if len(a.Records) != 1 || a.Records[0] != "a" {
		t.Fatalf("restored task payload %+v", a)
	}
}

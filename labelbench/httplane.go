package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// httpLane is a lane on one keep-alive HTTP/1.1 connection to the JSON
// shim, one request per op. It writes requests and reads responses
// itself so the harness's own cost stays small: fetch requests are built
// at join time, submit bodies are appended into one reused buffer, and
// responses are scanned only for the fields the lane needs.
type httpLane struct {
	conn  net.Conn
	br    *bufio.Reader
	lane  int
	tr    *tracer
	in    *inputs
	req   []byte
	sub   []byte   // submit body
	body  []byte   // latest response body
	fetch [][]byte // per worker: the prebuilt GET /api/task request
}

func newHTTPLane(conn net.Conn, lane int, tr *tracer, in *inputs) *httpLane {
	return &httpLane{conn: conn, br: bufio.NewReaderSize(conn, 16<<10), lane: lane, tr: tr, in: in}
}

var errHTTPFraming = errors.New("malformed HTTP response")

// do sends one request and reads its response; the body is valid until
// the next call.
func (h *httpLane) do(req []byte) (int, error) {
	h.conn.SetDeadline(time.Now().Add(opWatchdog))
	span := h.tr.begin(h.lane, hopClient, "http.request", 1)
	status, err := h.exchange(req)
	h.tr.end(h.lane, hopClient, span)
	return status, err
}

func (h *httpLane) exchange(req []byte) (int, error) {
	if _, err := h.conn.Write(req); err != nil {
		return 0, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, errHTTPFraming
	}
	status, ok := atoi(line[9:12])
	if !ok {
		return 0, errHTTPFraming
	}
	length := 0
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "Content-Length"); ok {
			if length, ok = atoi(v); !ok {
				return 0, errHTTPFraming
			}
		} else if _, ok := headerValue(line, "Transfer-Encoding"); ok {
			return 0, errHTTPFraming
		}
	}
	if cap(h.body) < length {
		h.body = make([]byte, length)
	}
	h.body = h.body[:length]
	if _, err := io.ReadFull(h.br, h.body); err != nil {
		return 0, err
	}
	return status, nil
}

// atoi parses a non-negative decimal without allocating.
func atoi(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, len(b) > 0
}

func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) < len(name)+1 || line[len(name)] != ':' || string(line[:len(name)]) != name {
		return nil, false
	}
	return bytes.TrimSpace(line[len(name)+1:]), true
}

func (h *httpLane) post(path string, body []byte) []byte {
	h.req = append(h.req[:0], "POST "...)
	h.req = append(h.req, path...)
	h.req = append(h.req, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	h.req = strconv.AppendInt(h.req, int64(len(body)), 10)
	h.req = append(h.req, "\r\n\r\n"...)
	return append(h.req, body...)
}

func (h *httpLane) join(names []string) ([]int, error) {
	ids := make([]int, len(names))
	for i, n := range names {
		status, err := h.do(h.post("/api/join", []byte(`{"name":"`+n+`"}`)))
		if err != nil {
			return nil, err
		}
		id, ok := intField(h.body, `"worker_id":`)
		if status != 200 || !ok {
			return nil, fmt.Errorf("join: status %d", status)
		}
		ids[i] = id
		h.fetch = append(h.fetch, []byte("GET /api/task?worker_id="+strconv.Itoa(id)+" HTTP/1.1\r\nHost: bench\r\n\r\n"))
	}
	return ids, nil
}

func (h *httpLane) enqueue(b *batchTmpl) ([]int, error) {
	status, err := h.do(h.post("/api/tasks", b.httpBody))
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("enqueue: status %d", status)
	}
	// {"task_ids":[1,3,5]}
	i := bytes.IndexByte(h.body, '[')
	if i < 0 {
		return nil, errHTTPFraming
	}
	ids := make([]int, 0, len(b.tasks))
	n, digits := 0, false
	for _, c := range h.body[i+1:] {
		switch {
		case c >= '0' && c <= '9':
			n, digits = n*10+int(c-'0'), true
		case digits:
			ids = append(ids, n)
			n, digits = 0, false
		}
		if c == ']' {
			break
		}
	}
	return ids, nil
}

func (h *httpLane) round(ws []*worker, now func() int64) error {
	for i, w := range ws {
		w.submitted = w.held != nil
		if w.submitted {
			w.sentAt = now()
			b := append(h.sub[:0], `{"worker_id":`...)
			b = strconv.AppendInt(b, int64(w.id), 10)
			b = append(b, `,"task_id":`...)
			b = strconv.AppendInt(b, int64(w.heldTask), 10)
			b = append(b, `,"labels":[`...)
			for j, lab := range w.held.labels {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(lab), 10)
			}
			h.sub = append(b, ']', '}')
			status, err := h.do(h.post("/api/submit", h.sub))
			if err != nil {
				return err
			}
			w.ackAt = now()
			w.subErr = status != 200
			w.accepted = bytes.HasPrefix(h.body, []byte(`{"accepted":true`))
			w.term = bytes.Contains(h.body, []byte(`"terminated":true`))
		}
		status, err := h.do(h.fetch[i])
		if err != nil {
			return err
		}
		w.gotAt = now()
		w.fetchErr, w.got, w.gotTask = false, nil, 0
		switch status {
		case 204:
		case 200:
			// {"task_id":N,"records":["rec0",...],"classes":2}
			id, ok := intField(h.body, `"task_id":`)
			rec0, ok2 := firstRecord(h.body)
			if ok && ok2 {
				w.got, w.gotTask = h.in.byRec0[string(rec0)], id
			}
			w.fetchErr = w.got == nil
		default:
			w.fetchErr = true
		}
	}
	return nil
}

// intField parses the integer following key in body.
func intField(body []byte, key string) (int, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	n, digits := 0, false
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n, digits = n*10+int(c-'0'), true
	}
	return n, digits
}

// firstRecord returns the first string of the "records" array. The
// generator's records contain no escapes.
func firstRecord(body []byte) ([]byte, bool) {
	const key = `"records":["`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil, false
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil, false
	}
	return rest[:j], true
}

func (h *httpLane) close() { h.conn.Close() }

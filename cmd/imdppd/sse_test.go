package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"imdpp"
)

func jsonUnmarshal(s string, v any) error { return json.Unmarshal([]byte(s), v) }

// newDaemonWith builds a test daemon over a custom service config and
// SSE heartbeat — the chaos and SSE tiers need slow backends, tiny
// queues and fast heartbeats the default fixture doesn't have.
func newDaemonWith(t *testing.T, cfg imdpp.ServiceConfig, heartbeat time.Duration) (*daemon, *httptest.Server) {
	t.Helper()
	d := newDaemon(cfg, nil)
	if heartbeat > 0 {
		d.heartbeat = heartbeat
	}
	srv := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		srv.Close()
		d.svc.Close()
	})
	return d, srv
}

// sseFrame is one parsed Server-Sent Event (or keep-alive comment).
type sseFrame struct {
	id      int
	event   string
	data    string
	comment bool
}

// readSSE consumes an event stream to EOF and returns its frames in
// order, heartbeat comments included.
func readSSE(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	var (
		frames []sseFrame
		cur    sseFrame
		dirty  bool
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if dirty {
				frames = append(frames, cur)
				cur, dirty = sseFrame{}, false
			}
		case strings.HasPrefix(line, ":"):
			frames = append(frames, sseFrame{comment: true, data: strings.TrimSpace(line[1:])})
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.Atoi(line[4:])
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id, dirty = id, true
		case strings.HasPrefix(line, "event: "):
			cur.event, dirty = line[7:], true
		case strings.HasPrefix(line, "data: "):
			cur.data, dirty = line[6:], true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE stream: %v", err)
	}
	if dirty {
		frames = append(frames, cur)
	}
	return frames
}

// events filters out heartbeat comments.
func events(frames []sseFrame) []sseFrame {
	var out []sseFrame
	for _, f := range frames {
		if !f.comment {
			out = append(out, f)
		}
	}
	return out
}

// TestSSEStreamRoundTrip pins the wire contract of
// GET /v1/jobs/{id}/events: monotonically increasing ids, progress
// frames carrying ProgressEvent JSON, exactly one terminal frame
// carrying the full JobView (solution included), then EOF.
func TestSSEStreamRoundTrip(t *testing.T) {
	_, srv := newTestDaemon(t)

	var sub solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", quickSolve, &sub); code != http.StatusAccepted {
		t.Fatalf("solve: status %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.JobID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	evs := events(readSSE(t, resp.Body))
	if len(evs) < 2 {
		t.Fatalf("stream carried %d events, want progress + terminal", len(evs))
	}
	lastID := 0
	terminals := 0
	for i, f := range evs {
		if f.id <= lastID {
			t.Fatalf("event %d: id %d not increasing past %d", i, f.id, lastID)
		}
		lastID = f.id
		switch f.event {
		case "progress":
			var pe imdpp.ProgressEvent
			if err := jsonUnmarshal(f.data, &pe); err != nil || pe.Phase == "" {
				t.Fatalf("progress frame %d undecodable (%v): %q", i, err, f.data)
			}
			if terminals > 0 {
				t.Fatalf("progress frame %d after the terminal event", i)
			}
		case "done":
			terminals++
			var view imdpp.JobView
			if err := jsonUnmarshal(f.data, &view); err != nil {
				t.Fatalf("terminal frame undecodable: %v", err)
			}
			if view.Status != imdpp.JobDone || view.Solution == nil || len(view.Solution.Seeds) == 0 {
				t.Fatalf("terminal view incomplete: %+v", view)
			}
		default:
			t.Fatalf("unexpected event type %q", f.event)
		}
	}
	if terminals != 1 {
		t.Fatalf("%d terminal frames, want exactly 1", terminals)
	}
}

// TestSSELastEventIDResume: a resumed stream replays only events past
// the given sequence number, delivers the terminal exactly once, and a
// resume from at-or-past the terminal closes immediately with no
// frames rather than re-sending the outcome.
func TestSSELastEventIDResume(t *testing.T) {
	_, srv := newTestDaemon(t)

	var sub solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", quickSolve, &sub); code != http.StatusAccepted {
		t.Fatalf("solve: status %d", code)
	}
	pollUntil(t, srv.URL+"/v1/jobs/"+sub.JobID, func(v imdpp.JobView) bool {
		return v.Status == imdpp.JobDone
	})
	full := events(sseGet(t, srv.URL, sub.JobID, ""))
	if len(full) < 2 {
		t.Fatalf("full stream carried %d events, want at least 2", len(full))
	}
	mid := full[0].id
	resumed := events(sseGet(t, srv.URL, sub.JobID, fmt.Sprint(mid)))
	if len(resumed) != len(full)-1 {
		t.Fatalf("resume after %d replayed %d events, want %d", mid, len(resumed), len(full)-1)
	}
	for i, f := range resumed {
		if f.id != full[i+1].id || f.event != full[i+1].event || f.data != full[i+1].data {
			t.Fatalf("resumed frame %d differs from original: %+v vs %+v", i, f, full[i+1])
		}
	}
	terminalSeq := full[len(full)-1].id
	after := events(sseGet(t, srv.URL, sub.JobID, fmt.Sprint(terminalSeq)))
	if len(after) != 0 {
		t.Fatalf("resume past the terminal replayed %d events, want 0", len(after))
	}

	// query-parameter resume (for EventSource polyfills that cannot set
	// headers) behaves identically
	resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.JobID + "/events?last_event_id=" + fmt.Sprint(mid))
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	qp := events(readSSE(t, resp.Body))
	resp.Body.Close()
	if len(qp) != len(resumed) {
		t.Fatalf("query-param resume replayed %d events, want %d", len(qp), len(resumed))
	}

	for _, bad := range []string{"not-a-number", "12abc", "0x10", "-1"} {
		if code := sseStatus(t, srv.URL+"/v1/jobs/"+sub.JobID+"/events", bad); code != http.StatusBadRequest {
			t.Fatalf("bad Last-Event-ID %q: status %d, want 400", bad, code)
		}
	}
	if code := sseStatus(t, srv.URL+"/v1/jobs/nope/events", ""); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
}

// TestSSEHeartbeat: a stream with no events (queued job behind a
// blocker) carries keep-alive comments at the configured interval, and
// cancelling the job delivers its cancelled terminal through the same
// stream.
func TestSSEHeartbeat(t *testing.T) {
	_, srv := newDaemonWith(t, imdpp.ServiceConfig{Workers: 1, QueueDepth: 8, CacheSize: -1}, 20*time.Millisecond)

	slow := `{"dataset":"sample","budget":80,"t":3,"mc":4096,"mcsi":512,"candidate_cap":256,"seed":11}`
	var blocker solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", slow, &blocker); code != http.StatusAccepted {
		t.Fatalf("blocker: status %d", code)
	}
	var queued solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve", quickSolve, &queued); code != http.StatusAccepted {
		t.Fatalf("queued solve: status %d", code)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + queued.JobID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	go func() {
		// let several heartbeat intervals elapse on the idle stream, then
		// settle the queued job so the stream terminates
		time.Sleep(150 * time.Millisecond)
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+queued.JobID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		// and release the worker
		req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+blocker.JobID, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	frames := readSSE(t, resp.Body)
	beats := 0
	for _, f := range frames {
		if f.comment {
			beats++
		}
	}
	if beats < 2 {
		t.Fatalf("idle stream carried %d heartbeats over 150ms at 20ms interval, want at least 2", beats)
	}
	evs := events(frames)
	if len(evs) != 1 || evs[0].event != "cancelled" {
		t.Fatalf("stream events %+v, want exactly the cancelled terminal", evs)
	}
}

// TestSolveWaitLongPoll: ?wait= blocks submission until the job
// settles (200 with the full snapshot) or the deadline lapses (the
// usual 202 ticket), and malformed deadlines are rejected.
func TestSolveWaitLongPoll(t *testing.T) {
	_, srv := newTestDaemon(t)

	var view imdpp.JobView
	if code := postJSON(t, srv.URL+"/v1/solve?wait=30s", quickSolve, &view); code != http.StatusOK {
		t.Fatalf("wait solve: status %d", code)
	}
	if view.Status != imdpp.JobDone || view.Solution == nil {
		t.Fatalf("wait solve returned %+v, want done with solution", view)
	}

	slow := `{"dataset":"sample","budget":80,"t":3,"mc":4096,"mcsi":512,"candidate_cap":256,"seed":12}`
	var sub solveResponse
	if code := postJSON(t, srv.URL+"/v1/solve?wait=20ms", slow, &sub); code != http.StatusAccepted {
		t.Fatalf("expired wait: status %d, want 202", code)
	}
	if sub.JobID == "" {
		t.Fatalf("expired wait lost the job ticket: %+v", sub)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+sub.JobID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}

	if code := postJSON(t, srv.URL+"/v1/solve?wait=never", quickSolve, nil); code != http.StatusBadRequest {
		t.Fatalf("bad wait: status %d, want 400", code)
	}
}

// sseGet fetches a job's full event stream with an optional
// Last-Event-ID and returns its frames.
func sseGet(t *testing.T, base, jobID, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	return readSSE(t, resp.Body)
}

// sseStatus returns just the status code of an events request.
func sseStatus(t *testing.T, url, lastEventID string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestShutdownEndsEventStreams: shutting the coordinator's server down
// while a slow job streams its events cancels the job, so the stream
// ends with its terminal cancelled event and serve returns long before
// the grace runs out.
func TestShutdownEndsEventStreams(t *testing.T) {
	d := newDaemon(imdpp.ServiceConfig{Workers: 1, QueueDepth: 4, CacheSize: 8}, nil)
	t.Cleanup(d.svc.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- serve(ctx, d.server(), ln, time.Minute) }()
	base := "http://" + ln.Addr().String()

	var sub solveResponse
	slow := `{"dataset":"sample","budget":80,"t":3,"mc":32768,"mcsi":512,"candidate_cap":256,"seed":9}`
	if code := postJSON(t, base+"/v1/solve", slow, &sub); code != http.StatusAccepted {
		t.Fatalf("solve: status %d", code)
	}
	resp, err := http.Get(base + "/v1/jobs/" + sub.JobID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()

	cancel() // the stream is in flight: its handler has sent the headers
	select {
	case err := <-returned:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown waited on the open event stream")
	}
	evs := events(readSSE(t, resp.Body))
	if len(evs) == 0 || evs[len(evs)-1].event != "cancelled" {
		t.Fatalf("stream did not end with a terminal cancelled event: %+v", evs)
	}
}

package export

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"softqos/internal/telemetry"
	"softqos/internal/telemetry/eventlog"
)

// tickClock returns a clock advancing 1ms per reading, so every record
// gets a distinct, predictable timestamp.
func tickClock() telemetry.Clock {
	var t time.Duration
	return func() time.Duration {
		t += time.Millisecond
		return t
	}
}

func getLogs(t *testing.T, srv *Server, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/qos/logs%s", srv.Addr(), query))
	if err != nil {
		t.Fatalf("GET /debug/qos/logs%s: %v", query, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

type logsDoc struct {
	Total    int               `json:"total"`
	Evicted  uint64            `json:"evicted"`
	Returned int               `json:"returned"`
	Records  []json.RawMessage `json:"records"`
}

func decodeLogs(t *testing.T, body []byte) logsDoc {
	t.Helper()
	var doc logsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("logs document is not valid JSON: %v\n%s", err, body)
	}
	if doc.Returned != len(doc.Records) {
		t.Fatalf("returned=%d but %d records in document", doc.Returned, len(doc.Records))
	}
	return doc
}

func TestLogsEndpoint(t *testing.T) {
	lg := eventlog.New(tickClock(), 64)
	lg.Event(eventlog.Debug, "agent", "delta_stale", eventlog.Str("executable", "mpeg_play"))
	lg.Event(eventlog.Info, "repository", "delta_announced", eventlog.Int("generation", 3))
	lg.Event(eventlog.Warn, "hostmanager", "agent_evicted", eventlog.Str("subject", "p7"))
	lg.Event(eventlog.Error, "agent", "refresh_failure", eventlog.Str("error", "gone"))

	srv, err := Serve("127.0.0.1:0", telemetry.NewRegistry(nil), nil, WithEventLog(lg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, body := getLogs(t, srv, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	doc := decodeLogs(t, body)
	if doc.Total != 4 || doc.Returned != 4 || doc.Evicted != 0 {
		t.Fatalf("got total=%d returned=%d evicted=%d, want 4/4/0",
			doc.Total, doc.Returned, doc.Evicted)
	}
	if !strings.Contains(string(doc.Records[0]), `"delta_stale"`) {
		t.Fatalf("records not oldest-first: %s", doc.Records[0])
	}

	// ?level= is a minimum: warn keeps the eviction and the failure.
	_, body = getLogs(t, srv, "?level=warn")
	doc = decodeLogs(t, body)
	if doc.Returned != 2 {
		t.Fatalf("level=warn returned %d records, want 2", doc.Returned)
	}

	// ?component= narrows to one subsystem.
	_, body = getLogs(t, srv, "?component=agent")
	doc = decodeLogs(t, body)
	if doc.Returned != 2 {
		t.Fatalf("component=agent returned %d records, want 2", doc.Returned)
	}
	for _, r := range doc.Records {
		if !strings.Contains(string(r), `"component":"agent"`) {
			t.Fatalf("component filter leaked: %s", r)
		}
	}

	// ?since_ns= drops records before the instant (clock ticks 1ms per
	// record, so 3ms keeps the last two).
	_, body = getLogs(t, srv, "?since_ns="+fmt.Sprint(int64(3*time.Millisecond)))
	doc = decodeLogs(t, body)
	if doc.Returned != 2 {
		t.Fatalf("since_ns returned %d records, want 2", doc.Returned)
	}

	// ?limit= keeps the most recent N.
	_, body = getLogs(t, srv, "?limit=1")
	doc = decodeLogs(t, body)
	if doc.Returned != 1 || !strings.Contains(string(doc.Records[0]), `"refresh_failure"`) {
		t.Fatalf("limit=1 did not return the newest record: %s", body)
	}

	// Filters compose.
	_, body = getLogs(t, srv, "?level=error&component=agent")
	doc = decodeLogs(t, body)
	if doc.Returned != 1 || !strings.Contains(string(doc.Records[0]), `"refresh_failure"`) {
		t.Fatalf("combined filter wrong: %s", body)
	}
}

func TestLogsEndpointBadParams(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", telemetry.NewRegistry(nil), nil,
		WithEventLog(eventlog.New(tickClock(), 8)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, q := range []string{"?level=verbose", "?since_ns=soon", "?limit=-3", "?limit=many"} {
		resp, _ := getLogs(t, srv, q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestLogsEndpointNilLogger(t *testing.T) {
	// Serving without WithEventLog must still answer with the empty
	// document, not a panic or a 500.
	srv, err := Serve("127.0.0.1:0", telemetry.NewRegistry(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, body := getLogs(t, srv, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	doc := decodeLogs(t, body)
	if doc.Total != 0 || doc.Returned != 0 || doc.Evicted != 0 {
		t.Fatalf("nil logger document not empty: %s", body)
	}
}

func TestLogsEndpointBoundedAtCap(t *testing.T) {
	// A ring holding more than maxLogRecords must still serve at most
	// maxLogRecords, and ?limit= above the cap is clamped, so the body
	// stays bounded no matter how chatty the fleet is.
	lg := eventlog.New(tickClock(), 2*maxLogRecords)
	for i := 0; i < 2*maxLogRecords; i++ {
		lg.Event(eventlog.Info, "hostmanager", "load_spike", eventlog.Int("n", i))
	}
	srv, err := Serve("127.0.0.1:0", telemetry.NewRegistry(nil), nil, WithEventLog(lg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, q := range []string{"", fmt.Sprintf("?limit=%d", 10*maxLogRecords)} {
		_, body := getLogs(t, srv, q)
		doc := decodeLogs(t, body)
		if doc.Returned != maxLogRecords {
			t.Fatalf("GET %q returned %d records, want cap %d", q, doc.Returned, maxLogRecords)
		}
		if doc.Total != 2*maxLogRecords {
			t.Fatalf("total = %d, want %d", doc.Total, 2*maxLogRecords)
		}
		// The cap keeps the most recent window.
		last := string(doc.Records[len(doc.Records)-1])
		if !strings.Contains(last, fmt.Sprintf(`"n":%d`, 2*maxLogRecords-1)) {
			t.Fatalf("cap did not keep the newest records: %s", last)
		}
	}
}

func TestLogsEndpointConcurrentScrape(t *testing.T) {
	// Writers hammer the ring while scrapers read it: the race detector
	// (tier-1 runs with -race) proves the lock discipline.
	lg := eventlog.New(nil, 128)
	srv, err := Serve("127.0.0.1:0", telemetry.NewRegistry(nil), nil, WithEventLog(lg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lg.Event(eventlog.Warn, "msg", "send_retry",
					eventlog.Int("writer", w), eventlog.Int("i", i))
			}
		}(w)
	}
	for s := 0; s < 8; s++ {
		_, body := getLogs(t, srv, "?level=warn")
		decodeLogs(t, body)
	}
	close(stop)
	wg.Wait()
}

func TestParseLogsQueryDefaults(t *testing.T) {
	q, err := ParseLogsQuery(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != maxLogRecords || q.MinLevel != eventlog.Debug || q.Component != "" || q.Since != 0 {
		t.Fatalf("unexpected defaults: %+v", q)
	}
}

// FuzzParseLogsQuery feeds raw query strings through url.ParseQuery,
// ParseLogsQuery and the /debug/qos/logs handler: nothing may panic, an
// accepted query must carry a limit in [1, maxLogRecords] and a defined
// level, and the handler answers 200 exactly when the query parses and 400
// otherwise.
func FuzzParseLogsQuery(f *testing.F) {
	for _, q := range []string{
		"", "level=verbose", "since_ns=soon", "limit=-3", "limit=many",
		"level=warn&component=agent", "since_ns=3000000", "limit=1", "limit=5000", "limit=0",
	} {
		f.Add(q)
	}
	lg := eventlog.New(tickClock(), 8)
	lg.Event(eventlog.Warn, "agent", "refresh_failure", eventlog.Str("error", "gone"))
	h := Handler(nil, nil, WithEventLog(lg))
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw) // as r.URL.Query() does: keep what parsed
		q, err := ParseLogsQuery(v)
		if err == nil {
			if q.Limit < 1 || q.Limit > maxLogRecords {
				t.Fatalf("%q: limit %d outside [1, %d]", raw, q.Limit, maxLogRecords)
			}
			if q.MinLevel < eventlog.Debug || q.MinLevel > eventlog.Error {
				t.Fatalf("%q: undefined level %d", raw, q.MinLevel)
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/debug/qos/logs", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case err == nil && rec.Code == http.StatusOK:
			var doc logsDoc
			if jerr := json.Unmarshal(rec.Body.Bytes(), &doc); jerr != nil || doc.Returned > q.Limit {
				t.Fatalf("%q: bad document (returned %d, limit %d, err %v): %s", raw, doc.Returned, q.Limit, jerr, rec.Body.Bytes())
			}
		case err != nil && rec.Code == http.StatusBadRequest:
		default:
			t.Fatalf("%q: status %d, parse error %v", raw, rec.Code, err)
		}
	})
}

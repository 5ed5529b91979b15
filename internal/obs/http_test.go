package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("vihot_http_total", "t").Add(5)
	srv := httptest.NewServer(NewMux(r, NewTracer(8)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "vihot_http_total 5") {
		t.Fatalf("exposition missing counter:\n%s", body)
	}
}

func TestMuxServesPprofAndTrace(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(8)
	tr.Record("s", "track", 1, 0, 100)
	srv := httptest.NewServer(NewMux(r, tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index status %d:\n%.200s", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	d, err := ReadTrace(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != 1 || d.Spans[0].Stage != "track" {
		t.Fatalf("trace endpoint dump = %+v", d)
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	r := NewRegistry()
	srv, addr, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dlsbl/internal/dlt"
	"dlsbl/internal/protocol"
)

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPRoundTrip drives the full API surface over a real listener:
// pool creation, an NDJSON job stream with artifacts, pool snapshots and
// the metrics endpoint.
func TestHTTPRoundTrip(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 32})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/pools", `{"name":"alpha","network":"ncp-fe","w":[1,1.5,2,2.5],"policy":"ban-deviants"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create pool: %s", resp.Status)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/jobs",
		`{"pool":"alpha","artifacts":["timeline","transcript"],"jobs":[{"z":0.2,"seed":1},{"z":0.2,"seed":2,"behaviors":["","payment-cheat-2x"]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var events []string
	var results []JobResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, probe.Event)
		if probe.Event == "result" {
			var res JobResult
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	resp.Body.Close()
	if want := []string{"accepted", "result", "result", "done"}; strings.Join(events, ",") != strings.Join(want, ",") {
		t.Fatalf("event stream = %v, want %v", events, want)
	}
	if results[0].Round != 0 || results[1].Round != 1 {
		t.Fatalf("rounds = %d,%d; stream must preserve submission order", results[0].Round, results[1].Round)
	}
	if results[0].Timeline == nil || len(results[0].Transcript) == 0 {
		t.Fatal("requested artifacts missing from result")
	}
	if results[1].Fines[1] == 0 || len(results[1].Banned) != 1 {
		t.Fatalf("cheat round: fines=%v banned=%v", results[1].Fines, results[1].Banned)
	}

	// Pool snapshot reflects both rounds and the warm keyring.
	resp, err := http.Get(ts.URL + "/v1/pools/alpha")
	if err != nil {
		t.Fatal(err)
	}
	var snap PoolSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Rounds != 2 || snap.WarmKeys != 6 {
		t.Fatalf("snapshot rounds=%d warm_keys=%d, want 2 and 6", snap.Rounds, snap.WarmKeys)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Jobs.Completed != 2 || m.LatencyMS.Run.N != 2 || m.Protocol.FinedProcessors != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestHTTPStatusCodes maps the admission errors onto 404/429/400/503.
func TestHTTPStatusCodes(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHookBeforeRun = func(p *Pool, task *Task) {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}

	check := func(body string, want int) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/jobs", body)
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s → %s, want %d", body, resp.Status, want)
		}
	}
	check(`{"pool":"ghost","jobs":[{"z":0.2,"seed":1}]}`, http.StatusNotFound)
	check(`{"pool":"p","jobs":[{"z":0.2,"seed":1,"behaviors":["nope"]}]}`, http.StatusBadRequest)
	check(`{"pool":"p"`, http.StatusBadRequest)

	// Park the runner, fill the queue, then overflow → 429.
	go func() {
		resp := postJSON(t, ts.URL+"/v1/jobs", `{"pool":"p","jobs":[{"z":0.2,"seed":1}]}`)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
	}()
	<-started
	if _, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", `{"pool":"p","jobs":[{"z":0.2,"seed":3}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow → %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
	close(release)
	srv.Close()

	resp = postJSON(t, ts.URL+"/v1/jobs", `{"pool":"p","jobs":[{"z":0.2,"seed":4}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown → %s, want 503", resp.Status)
	}
	resp.Body.Close()
}

// TestHTTPRejectsOutOfRangeSpecs: a pool whose rates or fine could never
// run a round, and a job with a negative z or block count, answer 400 at
// creation or admission instead of failing later.
func TestHTTPRejectsOutOfRangeSpecs(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/pools", `{"name":"bad","w":[-1,2]}`},
		{"/v1/pools", `{"name":"bad","w":[0,2]}`},
		{"/v1/pools", `{"name":"bad","w":[1,2],"fine":-5}`},
		{"/v1/jobs", `{"pool":"p","jobs":[{"z":-0.2,"seed":1}]}`},
		{"/v1/jobs", `{"pool":"p","jobs":[{"z":0.2,"seed":1,"nblocks":-4}]}`},
		{"/v1/jobs", `{"pool":"p","jobs":[{"z":0.2,"seed":1,"installments":200000}]}`},
		{"/v1/jobs", fmt.Sprintf(`{"pool":"p","jobs":[{"z":0.2,"seed":1,"installments":%d}]}`, protocol.MaxInstallments+1)},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s → %s, want 400", tc.path, tc.body, resp.Status)
		}
		if strings.Contains(tc.body, "installments") && !strings.Contains(string(body), "installments must be in [0, 64]") {
			t.Errorf("POST %s %s: 400 body %q does not give the reason", tc.path, tc.body, body)
		}
	}
}

// TestHTTPFaultyJob exercises the per-job fault plan and retry policy
// through the JSON surface.
func TestHTTPFaultyJob(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/pools", `{"name":"p","w":[1,1.5,2,2.5]}`)
	resp.Body.Close()

	body := `{"pool":"p","jobs":[{"z":0.2,"seed":7,
		"faults":{"seed":42,"drop":0.2,"duplicate":0.1},
		"retry":{"max_attempts":8}}]}`
	resp = postJSON(t, ts.URL+"/v1/jobs", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", resp.Status)
	}
	var res JobResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe struct {
			Event string `json:"event"`
		}
		_ = json.Unmarshal(sc.Bytes(), &probe)
		if probe.Event == "result" {
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
		}
	}
	if res.Error != "" {
		t.Fatalf("faulty job failed: %s", res.Error)
	}
	if res.Fault == nil {
		t.Fatal("fault stats absent; JSON fault plan did not reach the bus")
	}
	direct, err := protocol.Run(protocol.Config{
		Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 1.5, 2, 2.5}, Seed: 7,
		Faults: faultPlan(0.2), Retry: protocol.RetryPolicy{MaxAttempts: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", res.Fault.Retransmits) != fmt.Sprintf("%v", direct.Fault.Retransmits) {
		t.Fatalf("retransmits %d, direct run got %d", res.Fault.Retransmits, direct.Fault.Retransmits)
	}
	if !equalF64(res.Payments, direct.Payments) {
		t.Fatalf("payments %v, direct run got %v", res.Payments, direct.Payments)
	}
}

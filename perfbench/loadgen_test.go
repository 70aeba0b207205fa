package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls once shows the stall in the latency of every
// request queued behind it: latency runs from the due time, not from when
// the request finally went out.
func TestOpenLoopStallShowsBehindIt(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	reqs := make([]request, 20)
	for i := range reqs {
		reqs[i] = request{"/", []byte("{}")}
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	samples := openLoop(context.Background(), client, srv.URL, reqs, 100, 1)

	if lat := samples[4].latency(); lat < stall {
		t.Fatalf("stalled request latency %v, want at least %v", lat, stall)
	}
	// Request 5 was due 10ms after the stalled one and waited for the only
	// connection: most of the stall lands in its latency, though its own
	// service time is short.
	behind := samples[5]
	if behind.latency() < stall-50*time.Millisecond {
		t.Fatalf("request queued behind the stall has latency %v, want about %v", behind.latency(), stall)
	}
	if service := behind.done - behind.sent; service > stall/2 {
		t.Fatalf("queued request's own service time %v, want short", service)
	}
	st := summarize(samples)
	if st.failed != 0 || st.lateP90 > 50 {
		t.Fatalf("failed %d, generator late p90 %.1fms", st.failed, st.lateP90)
	}
}

// The generator holds at most conns keep-alive connections however far
// behind the server falls.
func TestOpenLoopBoundsConnections(t *testing.T) {
	var mu sync.Mutex
	conns := map[net.Conn]bool{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			conns[c] = true
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()
	reqs := make([]request, 60)
	for i := range reqs {
		reqs[i] = request{"/", []byte("{}")}
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	samples := openLoop(context.Background(), client, srv.URL, reqs, 2000, 2)
	if st := summarize(samples); st.failed != 0 {
		t.Fatalf("%d requests failed", st.failed)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) > 2 {
		t.Fatalf("generator opened %d connections, want at most 2", len(conns))
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one prepared HTTP request of an open loop.
type request struct {
	path string
	body []byte
}

// sample is what the generator observed for one request. Times are offsets
// from the loop's start: when the request was due, when the generator
// queued it, when a sender sent it and when it completed. Latency runs from
// due, not from sent.
type sample struct {
	due, queued, sent, done time.Duration
	status                  int
	body                    []byte
	err                     error
}

func (s sample) latency() time.Duration { return s.done - s.due }

// newClient returns an HTTP client holding at most conns keep-alive
// connections to one host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// openLoop sends reqs to base at a fixed rate: request i is due at i/rate
// after the start, whether or not earlier requests have completed. conns
// senders each own one keep-alive connection; a due request waits for a
// free sender, and that wait counts in its latency. openLoop returns once
// every request has completed or failed.
func openLoop(ctx context.Context, client *http.Client, base string, reqs []request, rate float64, conns int) []sample {
	out := make([]sample, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends: the dispatcher never blocks
	done := make(chan struct{})
	start := time.Now()
	for w := 0; w < conns; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range queue {
				s := &out[i]
				s.sent = time.Since(start)
				s.status, s.body, s.err = post(ctx, client, base+reqs[i].path, reqs[i].body)
				s.done = time.Since(start)
			}
		}()
	}
	for i := range reqs {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if d := due - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		out[i].due, out[i].queued = due, time.Since(start)
		queue <- i
	}
	close(queue)
	for w := 0; w < conns; w++ {
		<-done
	}
	return out
}

// closedLoop keeps conns requests in flight: each sender posts the next
// unsent request of reqs as soon as its previous one completes, until dur
// has passed. It returns the samples of the requests it sent, in order,
// and the wall time from start until the last one completed; it fails if
// reqs run out first.
func closedLoop(ctx context.Context, client *http.Client, base string, reqs []request, conns int, dur time.Duration) ([]sample, time.Duration, error) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s := &out[i]
				s.due = time.Since(start)
				s.queued, s.sent = s.due, s.due
				s.status, s.body, s.err = post(ctx, client, base+reqs[i].path, reqs[i].body)
				s.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sent := min(int(next.Load()), len(reqs))
	if sent == len(reqs) && wall < dur {
		return nil, 0, fmt.Errorf("closed loop ran out of its %d requests before %v", len(reqs), dur)
	}
	return out[:sent], wall, ctx.Err()
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// loopStats summarizes one open loop.
type loopStats struct {
	n, failed   int
	lateP90     float64 // generator lateness (queued − due) in ms
	achievedRPS float64 // completions per second from the first due time to the last completion
}

func summarize(samples []sample) loopStats {
	st := loopStats{n: len(samples)}
	if len(samples) == 0 {
		return st
	}
	late := make([]float64, len(samples))
	var last time.Duration
	for i, s := range samples {
		late[i] = ms(float64(s.queued - s.due))
		if s.err != nil || s.status != http.StatusOK {
			st.failed++
		}
		if s.done > last {
			last = s.done
		}
	}
	st.lateP90 = quantile(late, 0.9)
	if last > 0 {
		st.achievedRPS = float64(len(samples)) / last.Seconds()
	}
	return st
}

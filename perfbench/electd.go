package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// daemon is one cmd/electd process serving on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	logs chan struct{} // closed once the stderr reader has drained
}

const daemonStartTimeout = 30 * time.Second

// startDaemon starts electd with default flags apart from the listen
// address, and returns once /healthz answers 200.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start electd: %w", err)
	}
	d := &daemon{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// The daemon logs its address, then one access-log line per
		// request; keep reading so it never blocks on a full pipe.
		defer close(d.logs)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		announced := false
		for sc.Scan() {
			if line := sc.Text(); !announced {
				if i := strings.Index(line, "serving on "); i >= 0 {
					f := strings.Fields(line[i+len("serving on "):])
					if len(f) > 0 {
						addr <- f[0]
						announced = true
					}
				}
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // draining only
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logs:
		d.stop()
		return nil, errors.New("electd exited before announcing its address")
	case <-time.After(daemonStartTimeout):
		d.stop()
		return nil, errors.New("electd did not announce its address")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(start) > daemonStartTimeout || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("electd never became healthy: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain stalls, and
// waits for the process and its log reader to end.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is fine
	exited := make(chan struct{})
	go func() {
		<-d.logs
		d.cmd.Wait() //nolint:errcheck // exit status of a drained daemon is not checked
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // best effort
		<-exited
	}
}

// metrics fetches the daemon's telemetry snapshot.
func (d *daemon) metrics() (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	resp, err := http.Get(d.base + "/debug/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/debug/metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// daemons sets a daemon up k times and returns a daemon set up once more
// for the workload, with the CPU time of each of the k set-ups. A set-up
// is a start to healthy plus extra, when set (cache warm-up); it is timed
// as the CPU time electd used over its life, read once it has drained and
// exited, so time the host steals and the harness's own work do not count.
func daemons(ctx context.Context, bin string, k int, extra func(*daemon) error) (*daemon, []float64, error) {
	setUp := func() (*daemon, error) {
		d, err := startDaemon(ctx, bin)
		if err != nil {
			return nil, err
		}
		if extra != nil {
			if err := extra(d); err != nil {
				d.stop()
				return nil, err
			}
		}
		return d, nil
	}
	var times []float64
	for i := 0; i < k; i++ {
		d, err := setUp()
		if err != nil {
			return nil, nil, err
		}
		d.stop()
		ps := d.cmd.ProcessState
		times = append(times, (ps.UserTime() + ps.SystemTime()).Seconds())
	}
	d, err := setUp()
	return d, times, err
}

// Command perfbench is the repository benchmark: one command that drives
// four workloads against the election stack, prints every end-to-end metric
// by name with its unit, checks every output against an oracle of its own,
// and, in a separate traced pass, prints the per-layer metrics.
//
// Usage, from the repository root (perfbench/run.sh builds this command and
// cmd/electd from source first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
// The command exits nonzero when any output fails its check. With -smoke and
// a short --seconds it runs a workload very briefly (the traced pass then
// replays four inputs), which is how its tests drive every workload.
//
// # Workloads
//
// One process generates all load with at most nproc worker goroutines or
// keep-alive connections. Every input is generated from --seed; the program
// receives only the generated inputs.
//
//   - adversary-sweep: campaign.ExecuteRuns with nproc workers running ELECT
//     as a closed batch on the E4 instances of bench_test.go (cycle
//     solvable and unsolvable, star node-reduce, Q3, random10) plus
//     Petersen {0,1}, crossed with all six adversary strategies and a seed
//     range; one run in eight also injects one of the five fault
//     strategies. The analysis cache is warmed during set-up. It exists
//     because the serializing turnstile and ELECT's phases do nearly all
//     the work here and HTTP and analysis do none: an engine change must
//     show its gain on it, and the fault minority catches a speed-up that
//     slows the crash and takeover paths.
//   - backend-zoo: campaign.ExecuteRuns over four backends (goroutine,
//     scheduled, transformed, networked over in-process pipes) crossed with
//     the dfs-election, zoo-dp, zoo-shades:{strong,weak,selection} and
//     zoo-uso protocols on zoo's default corpus. It is the only workload
//     that runs the transformed and networked backends and zoo's view
//     refinement; without it those layers go unmeasured.
//   - analyze-cold: a fresh cmd/electd receives POST /v1/analyze in an open
//     loop at a fixed rate; every request is a distinct instance and no two
//     are isomorphic (mostly random connected graphs, n = 8..16 with 2..4
//     homes, plus a minority of cycles, tori and hypercubes that set the
//     tail). Every request misses the cache and no simulation runs: the
//     work is iso search, order's class keys, Cayley recognition and
//     Theorem 2.1. Analysis changes must show here; engine changes must not.
//   - serve-hot: a fresh cmd/electd warmed with a small instance pool
//     receives, in an open loop at a fixed rate, about 80% /v1/analyze over
//     the pool and renumbered isomorphic copies (all cache hits) and about
//     20% /v1/elect on the default goroutine engine with distinct seeds.
//     HTTP, JSON and CanonicalKey dominate, and the two endpoints share the
//     worker pool, so starving one shows in the other's tail. The
//     serializing scheduler never runs here.
//
// The open-loop rates are fixed in this command (openLoopRate) at about a
// fifth of the workload's saturation throughput on a 2-core host at the
// commit that added the benchmark: low enough that queueing does not
// amplify interference from other tenants of the host into the latencies.
// Each request is timed from its due time, not its send time, and the
// generator's lateness and achieved rate are printed with the result.
//
// # End-to-end metrics
//
// Every workload prints every end-to-end metric; an operation is a campaign
// run on the batch workloads and an HTTP request on the open-loop ones.
//
//	setup_s        CPU time until the program is ready: on the batch
//	               workloads, this process's CPU for the first work-list
//	               window (campaign.Spec.Expand on backend-zoo) plus the
//	               analysis-cache warm-up; on the open-loop ones, electd's
//	               own CPU over a start to healthy, the cache warm-up and
//	               the drain, read once it has exited. The median of
//	               several set-ups in one run; batch set-ups run with
//	               GOMAXPROCS 1 so that their CPU time reads exactly.
//	ops_per_cpu_s  operations completed per CPU-second at saturation: batch,
//	               campaign runs with nproc workers over this process's CPU
//	               time; open loop, requests from nproc closed-loop senders
//	               over electd's CPU time. The median over segments.
//	op_p50_ms      median operation latency (open loop: at the fixed rate),
//	               the median over segments of the run
//
// Set-up and throughput are counted in CPU time, not wall time, and latency
// enters through its median alone, because on a shared 2-core virtual host
// the time the hypervisor steals for other tenants (up to a quarter of the
// CPU, printed as steal_frac) swings wall-clock rates by 10-50%, mean
// latencies by up to 30%, 90th percentiles by about 30% and 99th
// percentiles by 30-90% between identical runs. The wall-clock rate, the
// CPU utilization, the mean, the 90th and 99th percentiles where ten
// samples lie beyond them, and per-endpoint figures are printed before the
// result line.
//
// Counting per CPU-second has a blind spot: a change that leaves cores
// idle (a lock that blocks, serialized campaign workers, a smaller electd
// pool) cuts wall-clock capacity but not operations per CPU-second. The
// traced pass records that loss as campaign.saturation_util and
// serve.saturation_util; they are printed, not gated.
//
// The failure count (error rate = failed / attempted) is carried by the
// attempted and failed fields of the result line, not by a metric, as it is
// zero on a correct program. Failures are transport errors, any non-200
// response (503 and 504 included), a verdict that disagrees with the oracle,
// and a run with ok=false or an invariant violation.
//
// # Per-layer metrics
//
// The traced pass (--trace 1) starts electd and sets it up as the timed
// pass does (serve-hot warms its pool), then replays the first inputs of
// the workload in this process, each through the layer ladder iso →
// analysis → one sim run per engine → one fault run → the four runtime
// backends → one campaign run → one HTTP request, and records a span around
// each call into a layer. The scheduled sim run is timed as a campaign
// makes it, without recording; its decisions and per-phase counts come
// from the same run repeated untimed with recording and telemetry on.
// Where the program calls a lower layer itself (campaign → sim.Run,
// electd → analysis), the ladder calls the lower layer again on the
// identical input as a child step, and the upper layer's overhead is the
// difference. Spans are kept in memory and written to -spans at the end.
// Every per-layer metric is measured on every workload's inputs; the table
// says which end-to-end metric each should move and on which workload.
//
//	metric                                     layer              should move    on (not on)
//	serve.overhead_ms_p50                      serve              op_p50_ms      serve-hot (analyze-cold: analysis dominates)
//	analysiscache.misses, .hit_ratio           analysiscache      op_p50_ms      hit ratio ~1 on serve-hot, 0 on analyze-cold
//	analysiscache.key_us_p50                   analysiscache      op_p50_ms      serve-hot, paid on every hit
//	elect.analyze_ms_p50                       elect (analysis)   ops_per_cpu_s  analyze-cold (not adversary-sweep: warm cache)
//	order.classes_ms_p50, .keys_per_analysis   order              same           analyze-cold
//	iso.nodes_per_analysis, .leaves_per_analysis, .pruned_frac
//	                                           iso                same           analyze-cold
//	elect.cayley_ms_p50                        elect (analysis)   same           analyze-cold
//	labeling.thm21_ms_p50                      labeling           same           analyze-cold
//	sim.sched.us_per_decision, .us_per_move, .run_ms_p50, .decisions_per_run
//	                                           sim (serializing)  ops_per_cpu_s  adversary-sweep (not serve-hot, analyze-cold)
//	sim.goroutine.us_per_move, .run_ms_p50     sim (goroutine)    op_p50_ms      serve-hot (elect requests)
//	sim.moves_per_run, .accesses_per_run       exact counts: a change means different work, not a speed-up
//	elect.phase_moves.<phase>, elect.phase_accesses.<phase>
//	                                           elect (protocol)   ops_per_cpu_s  adversary-sweep
//	elect.invariants_us_p50                    elect (protocol)   ops_per_cpu_s  adversary-sweep
//	faults.run_ms_p50, .takeovers_per_run, .crashed_per_run
//	                                           adversary, faults  ops_per_cpu_s  adversary-sweep
//	campaign.overhead_frac, .retries           campaign           ops_per_cpu_s  adversary-sweep, backend-zoo
//	campaign.saturation_util                   campaign           wall capacity  adversary-sweep, backend-zoo
//	serve.saturation_util                      serve              wall capacity  serve-hot, analyze-cold
//	runtime.<backend>.run_ms_p50, .us_per_move runtime            ops_per_cpu_s  backend-zoo
//	runtime.networked.frames_per_run, .bytes_per_run
//	                                           runtime            ops_per_cpu_s  backend-zoo
//	zoo.predict_us_p50                         zoo                ops_per_cpu_s  backend-zoo
//	trace.overhead_frac                        the benchmark's own spans: traced over untraced ladder time, minus one
//
// The two saturation_util figures come from a probe between the first pass
// and the timing passes: campaign.ExecuteRuns with nproc workers over the
// ladder's campaign runs, then nproc connections posting the ladder's
// requests back to back, each for a tenth of the measuring time; each is
// the share of the CPU time the host did not steal that was spent working.
//
// Per-layer timings are medians: a traced pass holds tens of inputs, too
// few for a 99th percentile with ten samples beyond it. The open loop's own
// figures (shed requests, generator lateness, achieved rate, cache hits over
// the fixed-rate phase) are printed by the timed pass.
//
// # Provenance
//
// Before the result line the command prints one "provenance" JSON line: CPU
// model, nproc, GOMAXPROCS, Go version, the git commit (or "unknown" outside
// a git checkout) with a digest of the Go sources, the workload and seed,
// the share of CPU time stolen by the host during the run, and for each
// metric its repeats within the run, their median and their spread
// (interquartile range over the median).
//
// The older measurements, BENCH_serve.json with cmd/electload and
// BENCH_iso.json with cmd/benchiso, are left untouched; this command
// neither reads nor writes them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags plus the seams its tests use.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	electd   string
	root     string
	spans    string
	// oracle is the analysis oracle every verdict is checked against;
	// tests substitute a deliberately wrong one.
	oracle oracleFunc
}

// workload is one named load. timed measures the end-to-end metrics with
// tracing off; traced replays the workload's inputs through the layer
// ladder and measures the per-layer metrics, on a daemon set up by warm
// (when set) as the timed pass sets up its own.
type workload struct {
	timed        func(ctx context.Context, o *options) (*outcome, error)
	items        func(seed int64, count int) ([]item, error)
	warm         func(ctx context.Context, seed int64, d *daemon) error
	ladderInputs int // inputs per traced pass (smoke mode uses fewer)
}

var workloads = map[string]workload{
	"adversary-sweep": {timed: timedSweep, items: sweepItems, ladderInputs: 72},
	"backend-zoo":     {timed: timedZoo, items: zooItems, ladderInputs: 66},
	"analyze-cold":    {timed: timedCold, items: coldItems, ladderInputs: 48},
	"serve-hot":       {timed: timedHot, items: hotItems, warm: warmHot, ladderInputs: 72},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run parses args, runs one workload and prints the report; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return execute(ctx, o, stdout, stderr)
}

func parseOptions(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{oracle: analysisOracle}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: one of adversary-sweep, analyze-cold, backend-zoo, serve-hot")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "measuring time of one run")
	fs.IntVar(&trace, "trace", 0, "0 = timed end-to-end pass, 1 = traced per-layer pass")
	fs.BoolVar(&o.smoke, "smoke", false, "run the workload very briefly (tests)")
	fs.StringVar(&o.electd, "electd", ".bench_build/electd", "cmd/electd binary")
	fs.StringVar(&o.root, "root", ".", "repository root, for the source digest")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans.jsonl", "where the traced pass writes its spans")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	o.trace = trace == 1
	if _, err := os.Stat(o.electd); err != nil {
		return nil, fmt.Errorf("electd binary: %w", err)
	}
	return o, nil
}

// execute runs the workload and prints the provenance line, the failure
// sample and the result line. A run that cannot measure prints no result.
func execute(ctx context.Context, o *options, stdout, stderr io.Writer) int {
	wl := workloads[o.workload]
	host0 := readHostCPU()
	var out *outcome
	var err error
	if o.trace {
		out, err = tracedPass(ctx, o, wl)
	} else {
		out, err = wl.timed(ctx, o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if err := out.complete(want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	for _, note := range out.notes {
		fmt.Fprintln(stdout, note)
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(o, readHostCPU().since(host0).stealFrac()), "metrics": out.metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: provenance:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(prov))
	line, err := json.Marshal(out.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if out.failed > 0 {
		return 1
	}
	return 0
}

// deadline is the measuring budget of one run.
func (o *options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

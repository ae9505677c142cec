// Command perfbench is the serving benchmark: it runs one workload
// against the real HTTP server in its own process and prints every
// end-to-end metric by name, with its unit and sample count, after
// checking that every decision is correct. With -trace 1 it also replays
// the workload's digest prefix through each layer's public functions in
// process, timing them as spans, and prints the per-layer metrics.
//
// Usage (from the repository root, via perfbench/run.sh, which builds it):
//
//	perfbench --workload fleet-gateway --seed 1 --seconds 10 --trace 0
//
// The same binary is the server process (-role server -spec FILE): the
// benchmark starts it with the generated set-up inputs only, never the
// seed, so the server's CPU, memory and set-up time belong to it alone.
// Load comes from this process over at most two keep-alive connections,
// with every request body encoded before the timed window and every
// response decoded and checked after it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"iotsid/internal/cloud"
)

// setupRuns is how many times a run sets the server up; setup_s is their
// median, and the last server serves the load.
const setupRuns = 7

// latencyBound is latency_p50_ms's bound in BENCHMARK.json: the share by
// which the median latency may worsen before a change counts as a
// regression. An open-loop run whose generator sent later than that share
// of the send-timed median latency (at the median, over sends the sender
// was idle for) is invalid: its own lateness could pass for a regression.
const latencyBound = 0.25

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	out      string
}

func main() {
	var o options
	role := flag.String("role", "bench", "bench (default) or server")
	spec := flag.String("spec", "", "server set-up spec (server role)")
	record := flag.Int("record", 0, "print the recorded-digest table for seeds 0..N-1 and exit")
	traceN := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "timed window length")
	flag.StringVar(&o.root, "root", ".", "repository checkout root")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "build and scratch directory")
	flag.Parse()
	o.trace = *traceN == 1

	var err error
	switch {
	case *role == "server":
		err = serveMain(*spec)
	case *record > 0:
		err = recordDigests(*record)
	default:
		err = bench(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// plan is one run's generated inputs.
type plan struct {
	spec  serverSpec
	homes int         // digest width
	pass  [][]request // fleet-gateway: one pass per connection
	pool  []request   // home-command
	gen   *streamGen  // fleet-sensor-stream
}

func makePlan(workload string, seed int64, nconn int) (*plan, error) {
	switch workload {
	case wlGateway:
		pass, err := gatewayPass(seed, nconn)
		return &plan{spec: serverSpec{Workload: wlGateway, Homes: gwHomes, Shards: gwShards}, homes: gwHomes, pass: pass}, err
	case wlCommand:
		spec, pool, err := commandSetup(seed)
		return &plan{spec: spec, homes: 1, pool: pool}, err
	case wlStream:
		return &plan{spec: streamSpec(), homes: streamHomes, gen: newStreamGen(seed, nconn)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
}

// connections is the load generator's connection count: two, or fewer on
// a smaller machine.
func connections() int { return min(2, runtime.NumCPU()) }

// outcome is what the untraced HTTP run measured and verified.
type outcome struct {
	setups   []float64
	warm     tally   // the untimed first pass (first segment), closed loop
	slices   []tally // the timed window's slices
	timed    tally   // their sum
	verdicts verdicts
	digest   string
	stats    *cloud.FleetStats
	chained  int
}

func bench(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	nconn := connections()
	p, err := makePlan(o.workload, o.seed, nconn)
	if err != nil {
		return err
	}
	res, err := runHTTP(exe, o, p, nconn)
	if err != nil {
		return err
	}

	// The correctness gate: any failure ends the run without a metric.
	var problems []string
	fail := func(format string, a ...any) { problems = append(problems, fmt.Sprintf(format, a...)) }
	if res.timed.failed > 0 {
		fail("%d of %d operations failed", res.timed.failed, res.timed.attempted)
	}
	if want, ok := recordedDigests[o.workload][o.seed]; ok && want != res.digest {
		fail("digest %s, recorded for seed %d: %s", res.digest, o.seed, want)
	}
	if res.verdicts.unsafeChain > 0 {
		fail("%d chain tails allowed", res.verdicts.unsafeChain)
	}
	if o.workload == wlGateway {
		fl, err := fleetloadDigest(o)
		if err != nil {
			fail("fleetload oracle: %v", err)
		} else if fl != res.digest {
			fail("digest %s, cmd/fleetload at the same seed: %s", res.digest, fl)
		}
	}
	if o.workload == wlStream {
		if res.stats.LowTrustHomes != 0 {
			fail("%d honest homes finished low-trust", res.stats.LowTrustHomes)
		}
		if res.verdicts.chainTails != res.chained {
			fail("%d chain tails judged, %d chained homes", res.verdicts.chainTails, res.chained)
		}
	}
	if o.workload == wlCommand {
		late := percentileOf(append([]float64(nil), res.timed.lateMs...), 0.5).Value
		send := percentileOf(append([]float64(nil), res.timed.sendMs...), 0.5).Value
		if late > latencyBound*send {
			fail("generator lateness p50 %.3f ms exceeds %.0f%% of the send-timed p50 latency %.3f ms: the run measured the generator", late, latencyBound*100, send)
		}
	}

	if len(problems) > 0 {
		fmt.Printf("checks: digest %s\n", res.digest)
		for _, pr := range problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", pr)
		}
		return fmt.Errorf("correctness gate failed")
	}
	var layers map[string]float64
	var layerTable []layerStat
	if o.trace {
		if layers, layerTable, err = tracedRun(o, p, nconn, res); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}
	printReport(o, environment(o, nconn), res, layerTable)
	metrics := map[string]metric{}
	if o.trace {
		for _, m := range perLayer {
			metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		}
	} else {
		for name, m := range endToEnd(res) {
			metrics[name] = m
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, res.timed.attempted, res.timed.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runHTTP sets the server up setupRuns times, warms it with the first
// pass (whose answers are checked and become the reference), runs the
// timed window, checks every answer, and stops the server.
func runHTTP(exe string, o options, p *plan, nconn int) (outcome, error) {
	var res outcome
	specPath, err := writeSpec(o.out, p.spec)
	if err != nil {
		return res, err
	}
	defer os.Remove(specPath)
	var srv *serverProc
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return res, err
			}
		}
		if srv, err = startServer(exe, specPath); err != nil {
			return res, err
		}
		res.setups = append(res.setups, srv.setup.Seconds())
	}
	defer srv.kill()

	cl := make([]*client, nconn)
	for w := range cl {
		cl[w] = newClient(srv.url)
		defer cl[w].close()
		if err := cl[w].login(); err != nil {
			return res, err
		}
	}
	dg := newDigest(p.homes)
	v := verdicts{dg: dg}
	// The timed window is cut into slices of a fixed request count, each
	// large enough for its p99 to have ten samples beyond it; every
	// end-to-end metric is the median over slices, so a burst of
	// interference on the shared machine moves one slice, not the result.
	window := time.Duration(o.seconds) * time.Second
	var elapsed time.Duration
	slice := func(run func(t *tally)) error {
		t, err := measured(srv, run)
		res.slices = append(res.slices, t)
		elapsed += t.wall
		return err
	}
	switch o.workload {
	case wlGateway:
		t0 := time.Now()
		ref := runLists(cl, p.pass, &res.warm)
		res.warm.wall = time.Since(t0)
		for w := range ref {
			for k := range ref[w] {
				if err := v.authorize(&p.pass[w][k], ref[w][k]); err != nil {
					return res, err
				}
			}
		}
		pos := make([]int, nconn)
		for elapsed < window && err == nil {
			err = slice(func(t *tally) { runRepeat(cl, p.pass, ref, pos, gwSlice/nconn, t) })
		}
	case wlCommand:
		lists := make([][]request, nconn)
		for k := range p.pool {
			lists[k%nconn] = append(lists[k%nconn], p.pool[k])
		}
		t0 := time.Now()
		got := runLists(cl, lists, &res.warm)
		res.warm.wall = time.Since(t0)
		ref := make([]response, len(p.pool))
		for w := range got {
			for k := range got[w] {
				ref[lists[w][k].cmd] = got[w][k]
			}
		}
		for k := range ref {
			allowed, err := commandVerdict(ref[k])
			if err != nil {
				return res, err
			}
			v.decisions++
			if allowed {
				v.allowed++
			}
			v.dg.fold(0, allowed, false)
		}
		for sent := 0; sent < o.seconds*commandRate && err == nil; sent += commandSlice {
			err = slice(func(t *tally) { runOpen(cl, p.pool, ref, commandRate, sent, commandSlice, t) })
		}
	case wlStream:
		// A segment is a slice: its bodies are encoded before it and its
		// answers checked after it. The first segment is the warm-up and
		// the digest prefix; it ends with the chains.
		res.chained = p.gen.chainedHomes()
		for seg := 0; seg == 0 || elapsed < window; seg++ {
			lists, err := p.gen.segment()
			if err != nil {
				return res, err
			}
			var got [][]response
			t, err := measured(srv, func(t *tally) { got = runLists(cl, lists, t) })
			if err != nil {
				return res, err
			}
			for w := range got {
				for k := range got[w] {
					if err := v.check(&lists[w][k], got[w][k]); err != nil {
						return res, err
					}
				}
			}
			v.dg = nil
			if seg == 0 {
				res.warm = t
				continue
			}
			res.slices = append(res.slices, t)
			elapsed += t.wall
		}
		st, err := fleetStats(cl[0])
		if err != nil {
			return res, err
		}
		res.stats = &st
	}
	if err != nil {
		return res, err
	}
	for _, t := range res.slices {
		res.timed.add(t)
	}
	res.digest = dg.sum()
	res.verdicts = v
	return res, srv.stop()
}

func fleetStats(c *client) (cloud.FleetStats, error) {
	status, body, err := c.send(http.MethodGet, "/v1/fleet/stats", nil)
	if err != nil {
		return cloud.FleetStats{}, err
	}
	var st cloud.FleetStats
	if status != http.StatusOK || json.Unmarshal(body, &st) != nil {
		return st, fmt.Errorf("fleet stats: HTTP %d %s", status, body)
	}
	return st, nil
}

// fleetloadDigest runs cmd/fleetload — built beside this binary from the
// same checkout — at the run's seed, homes and steps (at its own batch and
// worker defaults) and returns its digest: an external oracle for the
// fleet-gateway decision stream.
func fleetloadDigest(o options) (string, error) {
	exe := filepath.Join(o.out, "fleetload")
	out, err := exec.Command(exe, "-homes", fmt.Sprint(gwHomes), "-shards", fmt.Sprint(gwShards),
		"-steps", fmt.Sprint(gwSteps), "-seed", fmt.Sprint(o.seed)).Output()
	if err != nil {
		return "", fmt.Errorf("%s: %w", exe, err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == "digest" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("no digest in fleetload output")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics of the untraced run that
// BENCHMARK.json bounds: the median over the timed window's slices of each
// slice's rate, CPU per operation and median latency; peak RSS over the
// whole run. The tail latency is reported beside them (sliceP99) but not
// bounded: on a shared 2-vCPU machine it is set by host preemption — the
// generator's own lateness p99 moves with it — and its spread over ten
// runs reached 0.77 of its median.
func endToEnd(res outcome) map[string]metric {
	var dps, pps, cpu, p50 []float64
	var rssKB int64
	for _, t := range res.slices {
		secs := t.wall.Seconds()
		dps = append(dps, float64(t.decisions)/secs)
		pps = append(pps, float64(t.pushes)/secs)
		cpu = append(cpu, float64(t.server.CPUNs)/1e3/float64(t.decisions+t.pushes))
		p50 = append(p50, percentileOf(append([]float64(nil), t.latencyMs...), 0.5).Value)
		rssKB = max(rssKB, t.maxRSSKB)
	}
	return map[string]metric{
		"setup_s":              {median(res.setups), "s"},
		"decisions_per_s":      {median(dps), "1/s"},
		"pushes_per_s":         {median(pps), "1/s"},
		"latency_p50_ms":       {median(p50), "ms"},
		"server_cpu_us_per_op": {median(cpu), "us"},
		"server_rss_mb":        {float64(rssKB) / 1024, "MB"},
	}
}

// sliceP99 is the median over slices of each slice's p99 latency (or the
// highest percentile the slice supports), with the lowest percentile used
// and the smallest slice's request count.
func sliceP99(res outcome) (value, p float64, minSamples int) {
	var v []float64
	p = 1
	for i, t := range res.slices {
		q := percentileOf(append([]float64(nil), t.latencyMs...), 0.99)
		v = append(v, q.Value)
		p = min(p, q.P)
		if i == 0 || q.Samples < minSamples {
			minSamples = q.Samples
		}
	}
	return median(v), p, minSamples
}

// env records where and on what a result was measured.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Loop       string  `json:"loop"`
	Rate       float64 `json:"offered_rate_per_s,omitempty"`
	Conns      int     `json:"connections"`
	Seconds    int     `json:"seconds"`
}

func environment(o options, nconn int) env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: o.seed, Workload: o.workload, Loop: "closed", Conns: nconn, Seconds: o.seconds,
		CPU: "unknown", Commit: "unknown (not a git checkout)"}
	if o.workload == wlCommand {
		e.Loop, e.Rate = "open", commandRate
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Ask git only inside a repository root: elsewhere it would search
	// the parent directories and could name an unrelated repository.
	if _, err := os.Stat(filepath.Join(o.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// printReport prints the human-readable report: environment, every
// end-to-end metric with unit and sample count, the checks' tallies, and
// (traced) the per-layer table.
func printReport(o options, e env, res outcome, layers []layerStat) {
	envLine, _ := json.Marshal(e)
	fmt.Printf("environment %s\n", envLine)
	t := res.timed
	m := endToEnd(res)
	n := len(res.slices)
	p99, p99Used, minReq := sliceP99(res)
	m["latency_p99_ms"] = metric{p99, "ms"}
	fmt.Printf("%-22s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	row := func(name, samples string) {
		fmt.Printf("%-22s %14.4f %-6s %s\n", name, m[name].Value, m[name].Unit, samples)
	}
	row("setup_s", fmt.Sprintf("median of %d set-ups %.4f", len(res.setups), res.setups))
	row("decisions_per_s", fmt.Sprintf("median of %d slices; %d decisions in %.3f s", n, t.decisions, t.wall.Seconds()))
	row("pushes_per_s", fmt.Sprintf("median of %d slices; %d context pushes in %.3f s", n, t.pushes, t.wall.Seconds()))
	row("latency_p50_ms", fmt.Sprintf("median of %d slices' p50; %d requests, at least %d per slice", n, len(t.latencyMs), minReq))
	row("latency_p99_ms", fmt.Sprintf("median of %d slices' p%.0f (lowest percentile a slice supported); at least %d requests per slice; reported, not bounded", n, p99Used*100, minReq))
	row("server_cpu_us_per_op", fmt.Sprintf("median of %d slices; %.3f s CPU over %d ops", n, float64(t.server.CPUNs)/1e9, t.decisions+t.pushes))
	row("server_rss_mb", "peak, server process")
	for i, sl := range res.slices {
		q := percentileOf(append([]float64(nil), sl.latencyMs...), 0.99)
		fmt.Printf("  slice %2d: %.3f s, %d requests, %.0f decisions/s, %.0f pushes/s, %.3f us CPU/op, p50 %.3f ms, p%.0f %.3f ms\n",
			i, sl.wall.Seconds(), sl.requests, float64(sl.decisions)/sl.wall.Seconds(), float64(sl.pushes)/sl.wall.Seconds(),
			float64(sl.server.CPUNs)/1e3/float64(sl.decisions+sl.pushes), percentileOf(append([]float64(nil), sl.latencyMs...), 0.5).Value, q.P*100, q.Value)
	}
	errRatio := 0.0
	if t.attempted > 0 {
		errRatio = float64(t.failed) / float64(t.attempted)
	}
	fmt.Printf("%-22s %14.6f %-6s %d failed of %d attempted\n", "error_ratio", errRatio, "ratio", t.failed, t.attempted)
	fmt.Printf("%-22s %14.4f %-6s %.3f s generator CPU over the window\n", "generator_cpu_share", t.genCPU.Seconds()/t.wall.Seconds(), "cores", t.genCPU.Seconds())
	if o.workload == wlCommand {
		s50 := percentileOf(append([]float64(nil), t.sendMs...), 0.5)
		late50 := percentileOf(append([]float64(nil), t.lateMs...), 0.5)
		late99 := percentileOf(append([]float64(nil), t.lateMs...), 0.99)
		fmt.Printf("%-22s %14.4f %-6s p%.0f of %d sends the sender was idle for (bound %.0f%% of send_latency_p50_ms)\n", "lateness_p50_ms", late50.Value, "ms", late50.P*100, late50.Samples, latencyBound*100)
		fmt.Printf("%-22s %14.4f %-6s p%.0f of %d sends the sender was idle for\n", "lateness_p99_ms", late99.Value, "ms", late99.P*100, late99.Samples)
		fmt.Printf("%-22s %14.4f %-6s p%.0f of %d requests, timed from send\n", "send_latency_p50_ms", s50.Value, "ms", s50.P*100, s50.Samples)
	}
	if w := res.warm; w.wall > 0 {
		fmt.Printf("warm-up (untimed, closed loop): %d requests, %d decisions in %.3f s: %.0f requests/s\n",
			w.requests, w.decisions, w.wall.Seconds(), float64(w.requests)/w.wall.Seconds())
	}
	v := res.verdicts
	recorded := "not recorded for this seed"
	if want, ok := recordedDigests[o.workload][o.seed]; ok {
		recorded = "matches the recorded " + want
	}
	fmt.Printf("checks: digest %s (%s); decoded decisions %d (allowed %d); chain tails %d (unsafe %d); honest sensitive rejections %d\n",
		res.digest, recorded, v.decisions, v.allowed, v.chainTails, v.unsafeChain, v.falseBlocks)
	if res.stats != nil {
		fmt.Printf("fleet: %d homes, low-trust %d, sequence anomalies %d\n", res.stats.Homes, res.stats.LowTrustHomes, res.stats.SeqAnomalies)
	}
	if len(layers) > 0 {
		fmt.Printf("\n%-26s %8s %9s %12s %12s %s\n", "span", "spans", "items", "total_ms", "self_ms", "")
		for _, l := range layers {
			nested := ""
			if l.Nested {
				nested = "nested"
			}
			fmt.Printf("%-26s %8d %9d %12.3f %12.3f %s\n", l.Name, l.Spans, l.Items, float64(l.Total)/1e6, float64(l.Self)/1e6, nested)
		}
		fmt.Println()
	}
}

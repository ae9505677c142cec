package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// layerMetric is one per-layer metric: its unit, which direction is
// better, and the end-to-end metric it should move on which workload.
// BENCHMARK.json lists the same names, units and directions.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

var perLayer = []layerMetric{
	{"cloud.decode_us_per_item", "us", "lower", "server_cpu_us_per_op, decisions_per_s, latency_p50_ms", "fleet-gateway; not home-command"},
	{"cloud.encode_us_per_item", "us", "lower", "server_cpu_us_per_op, decisions_per_s, latency_p50_ms", "fleet-gateway; not home-command"},
	{"cloud.request_bytes_per_item", "bytes", "lower", "server_cpu_us_per_op, decisions_per_s, latency_p50_ms", "fleet-gateway; not home-command"},
	{"cloud.response_bytes_per_item", "bytes", "lower", "server_cpu_us_per_op, decisions_per_s, latency_p50_ms", "fleet-gateway; not home-command"},
	{"sensor.snapshot_decode_us", "us", "lower", "server_cpu_us_per_op, decisions_per_s, latency_p50_ms", "fleet-gateway, fleet-sensor-stream; not home-command"},
	{"cloud.transport_us_per_request", "us", "lower", "latency_p50_ms", "all"},
	{"instr.build_ns", "ns", "lower", "server_cpu_us_per_op", "fleet-gateway"},
	{"fleet.batch_us", "us", "lower", "decisions_per_s, latency_p99_ms", "fleet-gateway; not home-command"},
	{"fleet.authorize_ns", "ns", "lower", "decisions_per_s, latency_p99_ms", "fleet-gateway; not home-command"},
	{"fleet.active_shards_per_batch", "count", "higher", "decisions_per_s, latency_p99_ms", "fleet-gateway; not home-command"},
	{"fleet.fail_closed_ratio", "ratio", "lower", "decisions_per_s, latency_p99_ms", "fleet-gateway; not home-command"},
	{"fleet.push_ns", "ns", "lower", "pushes_per_s, server_cpu_us_per_op", "fleet-sensor-stream; not fleet-gateway"},
	{"trust.observe_ns", "ns", "lower", "pushes_per_s, server_cpu_us_per_op", "fleet-sensor-stream; not fleet-gateway (unarmed)"},
	{"seq.observe_ns", "ns", "lower", "pushes_per_s, server_cpu_us_per_op", "fleet-sensor-stream; not fleet-gateway (unarmed)"},
	{"core.judge_ns", "ns", "lower", "server_cpu_us_per_op", "fleet-gateway"},
	{"miio.call_us", "us", "lower", "latency_p50_ms, latency_p99_ms", "home-command; not the fleet workloads"},
	{"miio.failed_calls", "count", "lower", "latency_p50_ms, latency_p99_ms", "home-command; not the fleet workloads"},
	{"smartthings.states_us", "us", "lower", "latency_p50_ms, latency_p99_ms", "home-command; not the fleet workloads"},
	{"smartthings.failed_calls", "count", "lower", "latency_p50_ms, latency_p99_ms", "home-command; not the fleet workloads"},
	{"sensor.normalize_us", "us", "lower", "latency_p50_ms, latency_p99_ms", "home-command; not the fleet workloads"},
	{"core.collect_us", "us", "lower", "latency_p50_ms, latency_p99_ms", "home-command; not the fleet workloads"},
	{"core.gate_us", "us", "lower", "latency_p50_ms, latency_p99_ms", "home-command; not the fleet workloads"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower", "server_cpu_us_per_op, latency_p99_ms", "fleet-gateway"},
	{"runtime.gc_cycles_per_10k_ops", "count", "lower", "server_cpu_us_per_op, latency_p99_ms", "fleet-gateway"},
	{"trace.overhead_pct", "%", "lower", "(none: the traced replay's cost over the untraced one)", "all"},
}

// prefixRequests returns the digest prefix of a workload as one ordered
// request list: each connection's requests in turn (connections own
// disjoint homes, so this keeps every home's order).
func prefixRequests(o options, p *plan, nconn int) ([]request, error) {
	var lists [][]request
	switch o.workload {
	case wlGateway:
		lists = p.pass
	case wlCommand:
		return p.pool, nil
	case wlStream:
		l, err := newStreamGen(o.seed, nconn).segment()
		if err != nil {
			return nil, err
		}
		lists = l
	}
	var out []request
	for _, l := range lists {
		out = append(out, l...)
	}
	return out, nil
}

// replayAll drives reqs through a fresh in-process deployment and returns
// it with its wall time.
func replayAll(spec serverSpec, homes int, reqs []request, traceOn bool) (*replayer, time.Duration, error) {
	rp, err := newReplayer(spec, homes, traceOn)
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = rp.close() }()
	start := time.Now()
	for k := range reqs {
		q := &reqs[k]
		switch q.path {
		case pathAuthorize:
			err = rp.authorize(k, q)
		case pathContext:
			err = rp.pushes(k, q)
		case pathCommand:
			var allowed bool
			allowed, err = rp.command(k, q)
			rp.dg.fold(0, allowed, false)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("replay request %d (%s): %w", k, q.path, err)
		}
	}
	return rp, time.Since(start), nil
}

// tracedRun replays the digest prefix untraced, traced, and untraced
// again; checks each replay decides exactly as the HTTP run did; writes
// the traced spans out; and derives the per-layer metrics. The overhead is
// the traced replay's wall time over the mean of the untraced ones.
func tracedRun(o options, p *plan, nconn int, res outcome) (map[string]float64, []layerStat, error) {
	reqs, err := prefixRequests(o, p, nconn)
	if err != nil {
		return nil, nil, err
	}
	var traced *replayer
	var walls [3]time.Duration
	for i, on := range []bool{false, true, false} {
		rp, wall, err := replayAll(p.spec, p.homes, reqs, on)
		if err != nil {
			return nil, nil, err
		}
		if d := rp.dg.sum(); d != res.digest {
			return nil, nil, fmt.Errorf("replay (traced=%t) digest %s, HTTP run %s", on, d, res.digest)
		}
		walls[i] = wall
		if on {
			traced = rp
		}
	}
	spans := traced.tr.spans
	if err := writeSpans(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.tsv", o.workload, o.seed)), spans); err != nil {
		return nil, nil, err
	}
	table := aggregate(spans)
	by := map[string]layerStat{}
	for _, l := range table {
		by[l.Name] = l
	}
	perItem := func(name string, scale float64) float64 {
		l := by[name]
		if l.Items == 0 {
			return 0
		}
		return float64(l.Total) / float64(l.Items) / scale
	}
	perSpan := func(name string, scale float64) float64 {
		l := by[name]
		if l.Spans == 0 {
			return 0
		}
		return float64(l.Total) / float64(l.Spans) / scale
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	// Transport: what the client saw per request beyond the layers' own
	// time — the spans directly under each request root.
	var layerNs int64
	for _, s := range spans {
		if s.parent >= 0 && !s.nested && spans[s.parent].parent < 0 {
			layerNs += s.dur
		}
	}
	sent := res.timed.latencyMs
	if o.workload == wlCommand {
		sent = res.timed.sendMs
	}
	var sum float64
	for _, v := range sent {
		sum += v
	}
	transport := 0.0
	if len(sent) > 0 && traced.requests > 0 {
		transport = sum/float64(len(sent))*1e3 - float64(layerNs)/float64(traced.requests)/1e3
	}
	ops := float64(res.timed.decisions + res.timed.pushes)
	untraced := (walls[0] + walls[2]) / 2
	m := map[string]float64{
		"cloud.decode_us_per_item":       perItem("cloud.decode", 1e3),
		"cloud.encode_us_per_item":       perItem("cloud.encode", 1e3),
		"cloud.request_bytes_per_item":   ratio(traced.reqBytes, traced.items),
		"cloud.response_bytes_per_item":  ratio(traced.respBytes, traced.items),
		"sensor.snapshot_decode_us":      perItem("sensor.snapshot_decode", 1e3),
		"cloud.transport_us_per_request": transport,
		"instr.build_ns":                 perItem("instr.build", 1),
		"fleet.batch_us":                 perSpan("fleet.batch", 1e3),
		"fleet.authorize_ns":             perItem("fleet.authorize", 1),
		"fleet.active_shards_per_batch":  ratio(traced.activeShards, traced.batches),
		"fleet.fail_closed_ratio":        ratio(traced.failClosed, traced.decisions),
		"fleet.push_ns":                  perItem("fleet.push", 1),
		"trust.observe_ns":               perItem("trust.observe", 1),
		"seq.observe_ns":                 perItem("seq.observe", 1),
		"core.judge_ns":                  perItem("core.judge", 1),
		"miio.call_us":                   perItem("miio.call", 1e3),
		"miio.failed_calls":              float64(traced.miioFailed),
		"smartthings.states_us":          perItem("smartthings.states", 1e3),
		"smartthings.failed_calls":       float64(traced.stFailed),
		"sensor.normalize_us":            perItem("sensor.normalize", 1e3),
		"core.collect_us":                perItem("core.collect", 1e3),
		"core.gate_us":                   perItem("core.gate", 1e3),
		"runtime.alloc_bytes_per_op":     float64(res.timed.server.TotalAlloc) / ops,
		"runtime.gc_cycles_per_10k_ops":  float64(res.timed.server.NumGC) * 1e4 / ops,
		"trace.overhead_pct":             100 * (walls[1].Seconds() - untraced.Seconds()) / untraced.Seconds(),
	}
	fmt.Printf("traced replay: %d requests, %d items, %d spans; wall untraced %.3f s / %.3f s, traced %.3f s\n",
		traced.requests, traced.items, len(spans), walls[0].Seconds(), walls[2].Seconds(), walls[1].Seconds())
	fmt.Printf("%-32s %14s %-6s %-6s %s\n", "per-layer metric", "value", "unit", "better", "should move (on workload)")
	for _, l := range perLayer {
		fmt.Printf("%-32s %14.4f %-6s %-6s %s (%s)\n", l.name, m[l.name], l.unit, l.better, l.moves, l.on)
	}
	return m, table, nil
}

// recordDigests prints the recorded-digest table for seeds 0..n-1, each
// computed by the untraced in-process replay of the workload's prefix.
func recordDigests(n int) error {
	nconn := connections()
	fmt.Println("var recordedDigests = map[string]map[int64]string{")
	for _, w := range workloadNames {
		fmt.Printf("\t%q: {", w)
		for seed := int64(0); seed < int64(n); seed++ {
			o := options{workload: w, seed: seed}
			p, err := makePlan(w, seed, nconn)
			if err != nil {
				return err
			}
			reqs, err := prefixRequests(o, p, nconn)
			if err != nil {
				return err
			}
			rp, _, err := replayAll(p.spec, p.homes, reqs, false)
			if err != nil {
				return err
			}
			if seed%4 == 0 {
				fmt.Printf("\n\t\t")
			} else {
				fmt.Printf(" ")
			}
			fmt.Printf("%d: %q,", seed, rp.dg.sum())
		}
		fmt.Printf("\n\t},\n")
	}
	fmt.Println("}")
	return nil
}

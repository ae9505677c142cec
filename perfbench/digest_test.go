package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// replayDigest replays a workload's digest prefix in process, generated
// for nconn connections.
func replayDigest(t *testing.T, workload string, seed int64, nconn int) string {
	t.Helper()
	o := options{workload: workload, seed: seed}
	p, err := makePlan(workload, seed, nconn)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := prefixRequests(o, p, nconn)
	if err != nil {
		t.Fatal(err)
	}
	rp, _, err := replayAll(p.spec, p.homes, reqs, false)
	if err != nil {
		t.Fatal(err)
	}
	return rp.dg.sum()
}

func TestDigestIndependentOfConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the prefix in process")
	}
	for _, w := range []string{wlGateway, wlStream} {
		one, two := replayDigest(t, w, 3, 1), replayDigest(t, w, 3, 2)
		if one != two {
			t.Errorf("%s: digest %s at 1 connection, %s at 2", w, one, two)
		}
	}
}

// TestGatewayDigestMatchesFleetload pins the fleet-gateway stream to
// cmd/fleetload's digest at seed 1 (10000 homes, 5 steps), the value the
// roadmap records.
func TestGatewayDigestMatchesFleetload(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the prefix in process")
	}
	if d := replayDigest(t, wlGateway, 1, 2); d != "284abdb8010ee900" {
		t.Errorf("fleet-gateway seed 1 digest %s, cmd/fleetload gives 284abdb8010ee900", d)
	}
}

func TestFoldOrderIsPerHome(t *testing.T) {
	a, b := newDigest(2), newDigest(2)
	a.fold(0, true, true)
	a.fold(1, false, true)
	a.fold(0, false, false)
	b.fold(1, false, true) // home 1 first: interleaving across homes is free
	b.fold(0, true, true)
	b.fold(0, false, false)
	if a.sum() != b.sum() {
		t.Errorf("interleaving changed the digest: %s vs %s", a.sum(), b.sum())
	}
	c := newDigest(2)
	c.fold(0, false, false) // one home's own order is not free
	c.fold(0, true, true)
	c.fold(1, false, true)
	if c.sum() == a.sum() {
		t.Error("reordering one home's decisions kept the digest")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	want := append([]string(nil), workloadNames...)
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", names, want)
		}
	}
	e2e := endToEnd(outcome{setups: []float64{1}, slices: []tally{{wall: 1, decisions: 1}}})
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): benchmark prints %+v", m.Name, m.Unit, got)
		}
		if m.Name == "latency_p50_ms" && m.Bound != latencyBound {
			t.Errorf("latency_p50_ms bound %v, open-loop lateness rule uses %v", m.Bound, latencyBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		l := perLayer[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, l)
		}
	}
}

package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

func trustEngineForCloud(t *testing.T, source string) *trust.Engine {
	t.Helper()
	e, err := trust.NewEngine(trust.Config{Threshold: 0.5, Decay: 0.7},
		trust.SourceConfig{Name: source, Required: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func corruptCloudScene(t *testing.T, at time.Time) sensor.Snapshot {
	t.Helper()
	s, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	s.At = at
	s.Set(sensor.FeatAirQuality, sensor.Number(-1))
	return s
}

// TestHealthzTrustDegrade: /healthz reports the trust rows and flips to
// 503 while a required source sits below its trust threshold — the
// load-balancer probe sees spoofing, not just silence.
func TestHealthzTrustDegrade(t *testing.T) {
	eng := trustEngineForCloud(t, "gw")
	srv, err := NewServer(Config{
		Users:    map[string]string{"a": "b"},
		Registry: instr.BuiltinRegistry(),
		Forward:  func(in instr.Instruction) error { return nil },
		Trust:    eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	get := func() (int, healthzBody) {
		t.Helper()
		resp, err := http.Get(srv.URL() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body healthzBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get()
	if code != http.StatusOK || body.Status != "ok" {
		t.Fatalf("pristine healthz = %d %q", code, body.Status)
	}
	if len(body.Trust) != 1 || body.Trust[0].Name != "gw" || body.Trust[0].Score != 1 {
		t.Fatalf("pristine trust rows = %+v", body.Trust)
	}

	at := time.Unix(1_600_000_000, 0)
	for i := 0; i < 2; i++ {
		at = at.Add(time.Second)
		eng.Observe("gw", corruptCloudScene(t, at), at)
	}
	code, body = get()
	if code != http.StatusServiceUnavailable || body.Status != "degraded" {
		t.Fatalf("spoofed healthz = %d %q, want 503 degraded", code, body.Status)
	}
	if len(body.Trust) != 1 || !body.Trust[0].LowTrust || body.Trust[0].Score >= 0.5 {
		t.Fatalf("spoofed trust rows = %+v", body.Trust)
	}
}

// TestFleetStatsLowTrustHomes: a spoofed home's collapse is visible in
// /v1/fleet/stats as low_trust_homes, fed entirely through the public
// push endpoint.
func TestFleetStatsLowTrustHomes(t *testing.T) {
	srv, fl := startFleetCloud(t, 2)
	if _, err := fl.AddHome(fleet.HomeConfig{ID: "spoofed", Trust: trustEngineForCloud(t, "push")}); err != nil {
		t.Fatal(err)
	}
	if err := srv.BindHome("spoofed", "gateway"); err != nil {
		t.Fatal(err)
	}
	c := login(t, srv, "gateway", "s3cret")

	stats, err := c.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.LowTrustHomes != 0 {
		t.Fatalf("LowTrustHomes before attack = %d, want 0", stats.LowTrustHomes)
	}

	at := time.Unix(1_600_000_000, 0)
	for i := 0; i < 2; i++ {
		at = at.Add(time.Second)
		if _, _, err := c.FleetPushContext(map[string]sensor.Snapshot{
			"spoofed": corruptCloudScene(t, at),
		}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err = c.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.LowTrustHomes != 1 {
		t.Fatalf("LowTrustHomes after attack = %d, want 1", stats.LowTrustHomes)
	}
}

// TestCommandFailsClosedOnLowTrust: /v1/command refuses a sensitive
// instruction while the gate's required source sits below its trust
// threshold — the same verdict Framework.Authorize reaches on the same
// collector. A spoofed feed that keeps pushing fresh, well-typed context
// must not reach the device.
func TestCommandFailsClosedOnLowTrust(t *testing.T) {
	eng := trustEngineForCloud(t, "sim")
	st, err := epoch.NewStore(epoch.Config{Observe: func(src string, d sensor.Snapshot, at time.Time) {
		eng.Observe(src, d, at)
	}}, epoch.SourceConfig{Name: "sim", Required: true, FreshFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := core.NewEpochCollector(core.EpochCollectorConfig{Trust: eng}, st)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.DefaultDetector()
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Config{Detector: det, Collector: coll, Memory: fleetMemory(t)})
	if err != nil {
		t.Fatal(err)
	}
	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:     map[string]string{"alice": "s3cret"},
		Registry:  instr.BuiltinRegistry(),
		Forward:   fwd.forward,
		Gate:      fw.Gate,
		Collector: coll,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Fatal(err)
	}
	c := login(t, srv, "alice", "s3cret")

	legal, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1_600_000_000, 0)
	push := func(s sensor.Snapshot) {
		t.Helper()
		at = at.Add(time.Second)
		s.At = at
		if err := st.Push("sim", s); err != nil {
			t.Fatal(err)
		}
	}
	push(legal)
	if err := c.Command("window.open", "window-1", nil); err != nil {
		t.Fatalf("trusted legal context: %v", err)
	}

	// Two corrupt pushes collapse the score; the legal push that follows
	// is fresh and believable-looking, but the source stays untrusted.
	for i := 0; i < 2; i++ {
		push(corruptCloudScene(t, at))
	}
	push(legal)
	if eng.Trusted("sim") {
		t.Fatal("spoofed feed still trusted")
	}
	in, err := instr.BuiltinRegistry().Build("window.open", "window-1", instr.OriginUser, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := fw.Authorize(context.Background(), in); err != nil || dec.Allowed || dec.Reason != core.ReasonLowTrust.String() {
		t.Fatalf("Framework.Authorize under low trust = %+v, %v; want the low-trust fail-closed rejection", dec, err)
	}

	var apiErr *APIError
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("command under low trust: %v, want 503", err)
	}
	if fwd.count() != 1 {
		t.Fatalf("forwarded = %d, want only the trusted command", fwd.count())
	}
	hist := srv.History()
	if last := hist[len(hist)-1]; last.Outcome != OutcomeFailed || !strings.Contains(last.Detail, "sim") {
		t.Fatalf("last history entry = %+v, want a failed outcome naming the source", last)
	}
}

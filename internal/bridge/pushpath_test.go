package bridge

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"iotsid/internal/epoch"
	"iotsid/internal/miio"
	"iotsid/internal/sensor"
)

// TestEventPumpMidBatchFailureRedelivers is the regression test for the
// pump's baseline handling: when a push fails mid-batch (here: an
// unencodable NaN AQI makes the devmode marshal fail at table position 6),
// the features after the failure point must stay dirty and go out on the
// next tick, and the features already pushed must not be duplicated.
func TestEventPumpMidBatchFailureRedelivers(t *testing.T) {
	h := newHome(t)
	dev, err := miio.NewDevMode(miio.DevModeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	pump, err := NewEventPump(h.Env(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pump.Tick(); err != nil { // prime
		t.Fatal(err)
	}
	base := h.Env().Snapshot()
	baseAQI, _ := base.Number(sensor.FeatAirQuality)

	// Three changes: smoke (before the poisoned prop), AQI (poisoned —
	// json.Marshal rejects NaN), window (after the poisoned prop).
	spoof := sensor.NewSnapshot(h.Env().Now())
	spoof.Set(sensor.FeatSmoke, sensor.Bool(!base.Bool(sensor.FeatSmoke)))
	spoof.Set(sensor.FeatAirQuality, sensor.Number(math.NaN()))
	spoof.Set(sensor.FeatWindowOpen, sensor.Bool(!base.Bool(sensor.FeatWindowOpen)))
	h.Env().Apply(spoof)

	pushed, err := pump.Tick()
	if err == nil {
		t.Fatal("NaN AQI encoded without error")
	}
	if !strings.Contains(err.Error(), "aqi") {
		t.Fatalf("error does not name the failing prop: %v", err)
	}
	if pushed != 1 {
		t.Fatalf("pushed %d before the failure, want 1 (smoke only)", pushed)
	}

	// Heal the poisoned value; the retry tick must deliver the AQI and the
	// window change it previously could not, and must NOT re-push smoke.
	heal := sensor.NewSnapshot(h.Env().Now())
	heal.Set(sensor.FeatAirQuality, sensor.Number(baseAQI+7))
	h.Env().Apply(heal)
	pushed, err = pump.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if pushed != 2 {
		t.Fatalf("recovery tick pushed %d, want 2 (aqi + window, no smoke duplicate)", pushed)
	}
	// Quiescent after recovery.
	pushed, err = pump.Tick()
	if err != nil || pushed != 0 {
		t.Fatalf("post-recovery tick = %d, %v, want 0, nil", pushed, err)
	}
}

// TestEventPumpHeartbeat: the keep-alive carries the full property state in
// one multi-prop frame and re-baselines the diff.
func TestEventPumpHeartbeat(t *testing.T) {
	h := newHome(t)
	dev, err := miio.NewDevMode(miio.DevModeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	listener, err := miio.SubscribeDevMode(dev.Addr().String(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = listener.Close() }()
	pump, err := NewEventPump(h.Env(), dev)
	if err != nil {
		t.Fatal(err)
	}
	n, err := pump.Heartbeat()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(XiaomiPropNames()); n != want {
		t.Fatalf("heartbeat carried %d props, want %d", n, want)
	}
	select {
	case r, ok := <-listener.Reports():
		if !ok {
			t.Fatal("report channel closed")
		}
		if r.Cmd != "heartbeat" {
			t.Fatalf("cmd = %q, want heartbeat", r.Cmd)
		}
		var raw map[string]any
		if err := json.Unmarshal(r.Data, &raw); err != nil {
			t.Fatal(err)
		}
		snap, decoded, err := DecodeReportAll(raw, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if decoded != n {
			t.Fatalf("decoded %d props of %d", decoded, n)
		}
		if snap.Len() != n {
			t.Fatalf("snapshot has %d values, want %d", snap.Len(), n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeat never arrived")
	}
	// The heartbeat primed the baseline: an immediate tick has nothing new.
	pushed, err := pump.Tick()
	if err != nil || pushed != 0 {
		t.Fatalf("tick after heartbeat = %d, %v, want 0, nil", pushed, err)
	}
}

func TestDecodeReportAll(t *testing.T) {
	at := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	snap, n, err := DecodeReportAll(map[string]any{
		"alarm":         1,
		"window_status": float64(0),
		"temperature":   float64(2150),
		"mystery":       "ignored",
	}, at)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("decoded %d props, want 3", n)
	}
	if !snap.At.Equal(at) {
		t.Fatalf("snapshot stamped %v, want %v", snap.At, at)
	}
	if !snap.Bool(sensor.FeatSmoke) {
		t.Error("alarm=1 not decoded to smoke=true")
	}
	if snap.Bool(sensor.FeatWindowOpen) {
		t.Error("window_status=0 decoded to open")
	}
	if temp, ok := snap.Number(sensor.FeatTempIndoor); !ok || temp != 21.5 {
		t.Errorf("temperature = %v, want 21.5", temp)
	}
	// Unknown-only payload: decodes nothing, no error.
	_, n, err = DecodeReportAll(map[string]any{"mystery": 1}, at)
	if err != nil || n != 0 {
		t.Errorf("unknown-only payload: n=%d err=%v", n, err)
	}
	// A broken known value aborts the whole decode.
	if _, _, err := DecodeReportAll(map[string]any{"alarm": "maybe", "natgas": 1}, at); err == nil {
		t.Error("broken value decoded without error")
	}
}

// TestDecodeReportErrorPaths covers the single-prop decoder's failure
// modes prop class by prop class.
func TestDecodeReportErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		raw  map[string]any
	}{
		{"bool from junk string", map[string]any{"alarm": "maybe"}},
		{"number from bool", map[string]any{"aqi": true}},
		{"label outside domain", map[string]any{"weather": "hail"}},
		{"lock from junk", map[string]any{"lock_state": "ajar"}},
		{"scaled number from junk", map[string]any{"temperature": "warm"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := DecodeReport(miio.Report{}, tc.raw)
			if err == nil {
				t.Fatalf("DecodeReport(%v) decoded without error", tc.raw)
			}
		})
	}
	// The error path must not mask the unknown-prop path.
	_, _, known, err := DecodeReport(miio.Report{}, map[string]any{})
	if err != nil || known {
		t.Fatalf("empty payload: known=%v err=%v", known, err)
	}
}

func feedStore(t *testing.T, source string) *epoch.Store {
	t.Helper()
	st, err := epoch.NewStore(epoch.Config{},
		epoch.SourceConfig{Name: source, Required: true, FreshFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDevModeFeedHandleReport(t *testing.T) {
	st := feedStore(t, "miio")
	feed, err := NewDevModeFeed(st, "miio", nil)
	if err != nil {
		t.Fatal(err)
	}
	report := func(data string) miio.Report {
		return miio.Report{Cmd: "report", Model: "lumi.sensor_alarm", SID: "alarm-1", Data: json.RawMessage(data)}
	}
	if err := feed.HandleReport(report(`{"alarm":1,"temperature":2150}`)); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	if v.Epoch != 1 || !v.Snap.Bool(sensor.FeatSmoke) {
		t.Fatalf("report not pushed: epoch=%d snap=%v", v.Epoch, v.Snap.Features())
	}
	if temp, _ := v.Snap.Number(sensor.FeatTempIndoor); temp != 21.5 {
		t.Fatalf("temperature = %v, want 21.5", temp)
	}
	// Unknown-prop change report is not a liveness signal: no push.
	if err := feed.HandleReport(report(`{"mystery":1}`)); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 1 {
		t.Fatalf("unknown-prop report pushed: epoch %d", st.Epoch())
	}
	// An empty heartbeat IS a liveness signal: epoch bumps, values survive.
	hb := miio.Report{Cmd: "heartbeat", Model: "lumi.gateway.v3", SID: "gateway", Data: json.RawMessage(`{}`)}
	if err := feed.HandleReport(hb); err != nil {
		t.Fatal(err)
	}
	if v := st.View(); v.Epoch != 2 || !v.Snap.Bool(sensor.FeatSmoke) {
		t.Fatalf("heartbeat liveness push: epoch=%d", v.Epoch)
	}
	// Malformed payloads error instead of silently dropping.
	if err := feed.HandleReport(report(`{broken`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if err := feed.HandleReport(report(`{"alarm":"maybe"}`)); err == nil {
		t.Error("broken value accepted")
	}
}

func TestDevModeFeedValidation(t *testing.T) {
	st := feedStore(t, "miio")
	if _, err := NewDevModeFeed(nil, "miio", nil); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewDevModeFeed(st, "", nil); err == nil {
		t.Error("empty source accepted")
	}
}

func TestDevModeFeedDrain(t *testing.T) {
	st := feedStore(t, "miio")
	feed, err := NewDevModeFeed(st, "miio", nil)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan miio.Report, 8)
	ch <- miio.Report{Cmd: "report", Data: json.RawMessage(`{"alarm":1}`)}
	ch <- miio.Report{Cmd: "report", Data: json.RawMessage(`{"motion_status":1}`)}
	ch <- miio.Report{Cmd: "report", Data: json.RawMessage(`{"alarm":0}`)}
	pushed, err := feed.Drain(ch)
	if err != nil {
		t.Fatal(err)
	}
	if pushed != 3 {
		t.Fatalf("drained %d, want 3", pushed)
	}
	v := st.View()
	if v.Snap.Bool(sensor.FeatSmoke) || !v.Snap.Bool(sensor.FeatMotion) {
		t.Fatalf("drained state wrong: %v", v.Snap.Features())
	}
	// Empty channel drains zero without blocking.
	if pushed, err := feed.Drain(ch); err != nil || pushed != 0 {
		t.Fatalf("empty drain = %d, %v", pushed, err)
	}
	// A broken report aborts the drain with its error.
	ch <- miio.Report{Cmd: "report", Data: json.RawMessage(`{"alarm":"maybe"}`)}
	ch <- miio.Report{Cmd: "report", Data: json.RawMessage(`{"alarm":1}`)}
	if _, err := feed.Drain(ch); err == nil {
		t.Fatal("broken report drained without error")
	}
}

func TestSTPoller(t *testing.T) {
	h := newHome(t)
	_, client := startST(t, h)
	st := feedStore(t, "st")
	poller, err := NewSTPoller(client, st, "st")
	if err != nil {
		t.Fatal(err)
	}
	n, err := poller.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("poll pushed an empty delta")
	}
	v := st.View()
	if v.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", v.Epoch)
	}
	// The pushed delta matches the environment's own snapshot.
	env := h.Env().Snapshot()
	for _, f := range []sensor.Feature{sensor.FeatSmoke, sensor.FeatMotion, sensor.FeatOccupancy} {
		if v.Snap.Bool(f) != env.Bool(f) {
			t.Errorf("feature %s: pushed %v, env %v", f, v.Snap.Bool(f), env.Bool(f))
		}
	}
	if _, err := NewSTPoller(nil, st, "st"); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := NewSTPoller(client, nil, "st"); err == nil {
		t.Error("nil store accepted")
	}
}

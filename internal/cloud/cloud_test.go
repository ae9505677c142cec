package cloud

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

type captureForwarder struct {
	mu   sync.Mutex
	got  []instr.Instruction
	fail bool
}

func (f *captureForwarder) forward(in instr.Instruction) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errors.New("device offline")
	}
	f.got = append(f.got, in)
	return nil
}

func (f *captureForwarder) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.got)
}

func startCloud(t *testing.T, gate Gate) (*Server, *captureForwarder) {
	t.Helper()
	fwd := &captureForwarder{}
	cfg := Config{
		Users:    map[string]string{"alice": "s3cret", "bob": "hunter2"},
		Registry: instr.BuiltinRegistry(),
		Forward:  fwd.forward,
	}
	if gate != nil {
		cfg.Gate = gate
		cfg.Collector = core.CollectorFunc(func(context.Context) (sensor.Snapshot, error) {
			s := sensor.NewSnapshot(sensorZero())
			s.Set(sensor.FeatSmoke, sensor.Bool(false))
			return s, nil
		})
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := srv.BindDevice("light-1", "alice"); err != nil {
		t.Fatal(err)
	}
	return srv, fwd
}

func login(t *testing.T, srv *Server, user, secret string) *Client {
	t.Helper()
	c, err := NewClient(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Login(user, secret); err != nil {
		t.Fatalf("Login: %v", err)
	}
	return c
}

func TestLoginAndCommandFlow(t *testing.T) {
	srv, fwd := startCloud(t, nil)
	c := login(t, srv, "alice", "s3cret")

	devices, err := c.Devices()
	if err != nil {
		t.Fatalf("Devices: %v", err)
	}
	if len(devices) != 2 || devices[0] != "light-1" || devices[1] != "window-1" {
		t.Errorf("devices = %v", devices)
	}

	if err := c.Command("window.open", "window-1", nil); err != nil {
		t.Fatalf("Command: %v", err)
	}
	if fwd.count() != 1 {
		t.Fatalf("forwarded = %d", fwd.count())
	}
	hist, err := c.History()
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if len(hist) != 1 || hist[0].Outcome != OutcomeForwarded || hist[0].Op != "window.open" {
		t.Errorf("history = %+v", hist)
	}
}

func TestLoginFailures(t *testing.T) {
	srv, _ := startCloud(t, nil)
	c, err := NewClient(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if err := c.Login("alice", "wrong"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad secret: %v", err)
	}
	if err := c.Login("mallory", "x"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Errorf("unknown user: %v", err)
	}
	// Unauthenticated command.
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated command: %v", err)
	}
}

func TestCommandVerification(t *testing.T) {
	srv, fwd := startCloud(t, nil)
	alice := login(t, srv, "alice", "s3cret")
	bob := login(t, srv, "bob", "hunter2")
	var apiErr *APIError

	// Unknown opcode rejected.
	if err := alice.Command("warp.engage", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op: %v", err)
	}
	// Bob does not own alice's window.
	if err := bob.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Errorf("foreign device: %v", err)
	}
	// Unbound device rejected.
	if err := alice.Command("vacuum.start", "vacuum-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Errorf("unbound device: %v", err)
	}
	if fwd.count() != 0 {
		t.Errorf("rejected commands forwarded: %d", fwd.count())
	}
	// Rejections are in the history.
	hist, err := alice.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("alice history = %+v", hist)
	}
	for _, h := range hist {
		if h.Outcome != OutcomeRejected {
			t.Errorf("entry = %+v", h)
		}
	}
}

func TestCloudGateBlocks(t *testing.T) {
	gate := func(in instr.Instruction, ctx sensor.Snapshot) error {
		if in.Op == "window.open" {
			return fmt.Errorf("ids: context illegal")
		}
		return nil
	}
	srv, fwd := startCloud(t, gate)
	c := login(t, srv, "alice", "s3cret")
	var apiErr *APIError
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Fatalf("gated command: %v", err)
	}
	if fwd.count() != 0 {
		t.Error("gated command forwarded")
	}
	if err := c.Command("light.on", "light-1", nil); err != nil {
		t.Fatalf("allowed command: %v", err)
	}
	if fwd.count() != 1 {
		t.Error("allowed command not forwarded")
	}
}

func TestCloudGateContextUnavailable(t *testing.T) {
	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:    map[string]string{"alice": "s3cret"},
		Registry: instr.BuiltinRegistry(),
		Forward:  fwd.forward,
		Gate:     func(instr.Instruction, sensor.Snapshot) error { return nil },
		Collector: core.CollectorFunc(func(context.Context) (sensor.Snapshot, error) {
			return sensor.Snapshot{}, errors.New("collector down")
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Fatal(err)
	}
	c := login(t, srv, "alice", "s3cret")
	var apiErr *APIError
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("context-down command: %v", err)
	}
	if fwd.count() != 0 {
		t.Error("command forwarded without context")
	}
}

func TestForwarderFailureRecorded(t *testing.T) {
	srv, fwd := startCloud(t, nil)
	fwd.fail = true
	c := login(t, srv, "alice", "s3cret")
	var apiErr *APIError
	if err := c.Command("window.open", "window-1", nil); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadGateway {
		t.Fatalf("failed forward: %v", err)
	}
	hist, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].Outcome != OutcomeFailed {
		t.Errorf("history = %+v", hist)
	}
}

func TestBindDeviceRules(t *testing.T) {
	srv, _ := startCloud(t, nil)
	if err := srv.BindDevice("x", "nobody"); err == nil {
		t.Error("want unknown-user error")
	}
	if err := srv.BindDevice("window-1", "bob"); err == nil {
		t.Error("want already-bound error")
	}
	// Re-binding to the same owner is idempotent.
	if err := srv.BindDevice("window-1", "alice"); err != nil {
		t.Errorf("idempotent rebind: %v", err)
	}
}

func TestServerConfigValidation(t *testing.T) {
	reg := instr.BuiltinRegistry()
	fwd := func(instr.Instruction) error { return nil }
	cases := []Config{
		{Registry: reg, Forward: fwd},                       // no users
		{Users: map[string]string{"a": "b"}, Forward: fwd},  // no registry
		{Users: map[string]string{"a": "b"}, Registry: reg}, // no forwarder
		{Users: map[string]string{"a": "b"}, Registry: reg, Forward: fwd, // gate without collector
			Gate: func(instr.Instruction, sensor.Snapshot) error { return nil }},
	}
	for i, cfg := range cases {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("case %d: want config error", i)
		}
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient("://bad"); err == nil {
		t.Error("want URL error")
	}
	c, err := NewClient("http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Login("a", "b"); err == nil {
		t.Error("want connection error")
	}
}

func TestHistoryIsolatedPerUser(t *testing.T) {
	srv, _ := startCloud(t, nil)
	alice := login(t, srv, "alice", "s3cret")
	bob := login(t, srv, "bob", "hunter2")
	if err := alice.Command("light.on", "light-1", nil); err != nil {
		t.Fatal(err)
	}
	bobHist, err := bob.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(bobHist) != 0 {
		t.Errorf("bob sees alice's history: %+v", bobHist)
	}
	// Server-side full history has it.
	if len(srv.History()) != 1 {
		t.Errorf("server history = %+v", srv.History())
	}
}

// TestHistoryBounded: the command history keeps only the newest historyCap
// entries, and /v1/history still filters what is left per user.
func TestHistoryBounded(t *testing.T) {
	srv, _ := startCloud(t, nil)
	alice := login(t, srv, "alice", "s3cret")
	bob := login(t, srv, "bob", "hunter2")
	const extra = 500
	for i := 0; i < historyCap+extra; i++ {
		user := "alice"
		if i%2 == 1 {
			user = "bob"
		}
		srv.record(user, commandRequest{Op: fmt.Sprintf("op-%d", i), DeviceID: "light-1"}, OutcomeForwarded, "")
	}
	if err := alice.Command("light.on", "light-1", nil); err != nil {
		t.Fatal(err)
	}
	all := srv.History()
	if len(all) != historyCap {
		t.Fatalf("server history holds %d entries, want the cap %d", len(all), historyCap)
	}
	if want := fmt.Sprintf("op-%d", extra+1); all[0].Op != want {
		t.Errorf("oldest retained = %q, want %q", all[0].Op, want)
	}
	if newest := all[len(all)-1]; newest.Op != "light.on" || newest.User != "alice" {
		t.Errorf("newest retained = %+v, want alice's light.on", newest)
	}
	for _, c := range []struct {
		client *Client
		user   string
		want   int
	}{{alice, "alice", historyCap / 2}, {bob, "bob", historyCap / 2}} {
		hist, err := c.client.History()
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != c.want {
			t.Errorf("%s sees %d entries, want %d", c.user, len(hist), c.want)
		}
		for _, e := range hist {
			if e.User != c.user {
				t.Fatalf("%s sees %s's entry %+v", c.user, e.User, e)
			}
		}
	}
}

func sensorZero() time.Time { return time.Time{} }

func TestLoginLockout(t *testing.T) {
	now := time.Unix(5000, 0)
	fwd := &captureForwarder{}
	srv, err := NewServer(Config{
		Users:            map[string]string{"alice": "s3cret"},
		Registry:         instr.BuiltinRegistry(),
		Forward:          fwd.forward,
		Now:              func() time.Time { return now },
		MaxLoginFailures: 3,
		LockoutWindow:    time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := NewClient(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	// Three failures trip the lockout.
	for i := 0; i < 3; i++ {
		if err := c.Login("alice", "wrong"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	// Even the correct secret is rejected while locked.
	if err := c.Login("alice", "s3cret"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("locked login: %v", err)
	}
	// After the window the account thaws.
	now = now.Add(2 * time.Minute)
	if err := c.Login("alice", "s3cret"); err != nil {
		t.Fatalf("post-lockout login: %v", err)
	}
	// A successful login resets the failure counter.
	if err := c.Login("alice", "wrong"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("single failure after reset: %v", err)
	}
	if err := c.Login("alice", "s3cret"); err != nil {
		t.Fatalf("login after single failure: %v", err)
	}
	// Unknown users never accumulate lockout state (no user enumeration
	// via 429s).
	for i := 0; i < 10; i++ {
		if err := c.Login("ghost", "x"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
			t.Fatalf("ghost login %d: %v", i, err)
		}
	}
}

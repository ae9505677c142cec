package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// requestTimeout bounds one HTTP exchange; a timeout is a failed operation.
const requestTimeout = 10 * time.Second

// serverProc is a running server process.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
	url   string
	setup time.Duration // process start until ready to serve
}

// startServer launches the server process on spec and waits until it is
// ready to serve.
func startServer(exe, specPath string) (*serverProc, error) {
	cmd := exec.Command(exe, "-role", "server", "-spec", specPath)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	if !p.out.Scan() {
		p.kill()
		return nil, fmt.Errorf("server exited before ready: %v", p.out.Err())
	}
	line := p.out.Text()
	if !strings.HasPrefix(line, "ready ") {
		p.kill()
		return nil, fmt.Errorf("server: unexpected line %q", line)
	}
	p.setup = time.Since(t0)
	p.url = strings.TrimPrefix(line, "ready ")
	return p, nil
}

// stats asks the server for its resource usage.
func (p *serverProc) stats() (usage, error) {
	if _, err := io.WriteString(p.stdin, "stats\n"); err != nil {
		return usage{}, err
	}
	if !p.out.Scan() {
		return usage{}, fmt.Errorf("server stats: %v", p.out.Err())
	}
	var u usage
	err := json.Unmarshal(p.out.Bytes(), &u)
	return u, err
}

// stop asks the server to exit and waits for it.
func (p *serverProc) stop() error {
	_, _ = io.WriteString(p.stdin, "quit\n") // a dead server is reported by Wait
	_ = p.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("server did not exit; killed")
	}
}

// kill ends the server without ceremony (error paths).
func (p *serverProc) kill() {
	_ = p.stdin.Close()
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// writeSpec stores spec where the server process can read it.
func writeSpec(dir string, spec serverSpec) (string, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spec-%d.json", os.Getpid()))
	return path, os.WriteFile(path, data, 0o644)
}

// client is one load connection: its own transport holding exactly one
// keep-alive TCP connection to the server.
type client struct {
	base    string
	session string
	http    *http.Client
	buf     bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// login opens a session for the benchmark account.
func (c *client) login() error {
	status, body, err := c.send(http.MethodPost, "/v1/login", []byte(`{"user":"`+benchUser+`","secret":"`+benchSecret+`"}`))
	if err != nil {
		return err
	}
	var resp struct {
		Session string `json:"session"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.Session == "" {
		return fmt.Errorf("login: HTTP %d %s", status, body)
	}
	c.session = resp.Session
	return nil
}

// send performs one exchange; the returned body aliases the client's
// buffer until the next send.
func (c *client) send(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.session != "" {
		req.Header.Set("Authorization", "Session "+c.session)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// response is one raw exchange outcome, kept for checking after the
// timed window.
type response struct {
	status int
	body   []byte
	err    error
}

// tally is what a load phase measured.
type tally struct {
	wall      time.Duration
	latencyMs []float64 // per request: from send (closed loop) or due time (open loop)
	sendMs    []float64 // open loop: from send
	lateMs    []float64 // open loop: send minus due, when the sender was idle at the due time
	requests  int
	decisions int
	pushes    int
	attempted int
	failed    int
	server    usage // server resource deltas over the phase
	genCPU    time.Duration
	maxRSSKB  int64
}

func (t *tally) add(o tally) {
	t.wall += o.wall
	t.latencyMs = append(t.latencyMs, o.latencyMs...)
	t.sendMs = append(t.sendMs, o.sendMs...)
	t.lateMs = append(t.lateMs, o.lateMs...)
	t.requests += o.requests
	t.decisions += o.decisions
	t.pushes += o.pushes
	t.attempted += o.attempted
	t.failed += o.failed
	t.server.CPUNs += o.server.CPUNs
	t.server.TotalAlloc += o.server.TotalAlloc
	t.server.NumGC += o.server.NumGC
	t.genCPU += o.genCPU
	t.maxRSSKB = max(t.maxRSSKB, o.maxRSSKB)
}

// count books one request's operations.
func (t *tally) count(r *request) {
	t.requests++
	if r.path == pathCommand {
		t.decisions++
		t.pushes++ // every command collects a fresh context
	} else {
		t.decisions += len(r.items)
		t.pushes += r.pushes
	}
}

// measured wraps a load phase with the server's and this process's
// resource readings.
func measured(srv *serverProc, phase func(t *tally)) (tally, error) {
	var t tally
	u0, err := srv.stats()
	if err != nil {
		return t, err
	}
	g0, err := selfUsage(false)
	if err != nil {
		return t, err
	}
	start := time.Now()
	phase(&t)
	t.wall = time.Since(start)
	g1, err := selfUsage(false)
	if err != nil {
		return t, err
	}
	u1, err := srv.stats()
	if err != nil {
		return t, err
	}
	t.genCPU = time.Duration(g1.CPUNs - g0.CPUNs)
	t.server = usage{CPUNs: u1.CPUNs - u0.CPUNs, TotalAlloc: u1.TotalAlloc - u0.TotalAlloc, NumGC: u1.NumGC - u0.NumGC}
	t.maxRSSKB = u1.MaxRSSKB
	return t, nil
}

// runLists sends each connection's list once, closed loop, connections in
// parallel, and returns every raw response by connection and position.
func runLists(cl []*client, lists [][]request, t *tally) [][]response {
	out := make([][]response, len(lists))
	lat := make([][]float64, len(lists))
	var wg sync.WaitGroup
	for w := range lists {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = make([]response, len(lists[w]))
			for k := range lists[w] {
				r := &lists[w][k]
				t0 := time.Now()
				status, body, err := cl[w].send(http.MethodPost, r.path, r.body)
				lat[w] = append(lat[w], ms(time.Since(t0)))
				out[w][k] = response{status: status, body: append([]byte(nil), body...), err: err}
			}
		}(w)
	}
	wg.Wait()
	for w := range lists {
		t.latencyMs = append(t.latencyMs, lat[w]...)
		for k := range lists[w] {
			t.count(&lists[w][k])
			t.attempted += lists[w][k].ops()
		}
	}
	return out
}

// runRepeat has each connection send n more requests of its list,
// cycling from pos[w] and leaving pos[w] at the next request, comparing
// every response with the reference answer to the same request (a
// repeated pass must decide exactly as the first did). Mismatches and
// errors count as failed operations.
func runRepeat(cl []*client, lists [][]request, ref [][]response, pos []int, n int, t *tally) {
	type part struct {
		lat []float64
		sub tally
	}
	parts := make([]part, len(lists))
	var wg sync.WaitGroup
	for w := range lists {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			k := pos[w]
			for i := 0; i < n; i++ {
				r := &lists[w][k]
				t0 := time.Now()
				status, body, err := cl[w].send(http.MethodPost, r.path, r.body)
				p.lat = append(p.lat, ms(time.Since(t0)))
				p.sub.count(r)
				p.sub.attempted += r.ops()
				if err != nil || status != ref[w][k].status || !bytes.Equal(body, ref[w][k].body) {
					p.sub.failed += r.ops()
				}
				k = (k + 1) % len(lists[w])
			}
			pos[w] = k
		}(w)
	}
	wg.Wait()
	for w := range parts {
		p := &parts[w]
		t.latencyMs = append(t.latencyMs, p.lat...)
		t.requests += p.sub.requests
		t.decisions += p.sub.decisions
		t.pushes += p.sub.pushes
		t.attempted += p.sub.attempted
		t.failed += p.sub.failed
	}
}

// runOpen sends n commands open loop at rate per second, taking pool
// entries from first on: command k is due at start + k/rate and goes out
// on sender k mod len(cl). Latency runs from the due time, so a stall is
// charged to every request it delays; lateness (send minus due) is
// recorded only when the sender was idle at the due time, which isolates
// the generator's own wake-up overshoot from server backlog.
func runOpen(cl []*client, pool []request, ref []response, rate float64, first, n int, t *tally) {
	type part struct {
		lat, send, late []float64
		sub             tally
	}
	parts := make([]part, len(cl))
	start := time.Now().Add(time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for w := range cl {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			for k := w; k < n; k += len(cl) {
				due := start.Add(time.Duration(k) * interval)
				idle := false
				if d := time.Until(due); d > 0 {
					preciseSleep(d)
					idle = true
				}
				sent := time.Now()
				r := &pool[(first+k)%len(pool)]
				status, body, err := cl[w].send(http.MethodPost, r.path, r.body)
				done := time.Now()
				p.lat = append(p.lat, ms(done.Sub(due)))
				p.send = append(p.send, ms(done.Sub(sent)))
				if idle {
					p.late = append(p.late, ms(sent.Sub(due)))
				}
				p.sub.count(r)
				p.sub.attempted++
				want := ref[r.cmd]
				if err != nil || status != want.status || !bytes.Equal(body, want.body) {
					p.sub.failed++
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range parts {
		p := &parts[w]
		t.latencyMs = append(t.latencyMs, p.lat...)
		t.sendMs = append(t.sendMs, p.send...)
		t.lateMs = append(t.lateMs, p.late...)
		t.requests += p.sub.requests
		t.decisions += p.sub.decisions
		t.pushes += p.sub.pushes
		t.attempted += p.sub.attempted
		t.failed += p.sub.failed
	}
}

// preciseSleep blocks the calling thread in nanosleep(2), which wakes
// within the kernel's timer slack (about 50 µs); time.Sleep parks the
// goroutine on the runtime's poller, whose millisecond timeout made the
// open loop send about 0.5 ms late at the median.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

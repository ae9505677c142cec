package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"iotsid/internal/bridge"
	"iotsid/internal/cloud"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/miio"
	"iotsid/internal/obs"
	"iotsid/internal/resilience"
	"iotsid/internal/seq"
	"iotsid/internal/smartthings"
	"iotsid/internal/trust"
)

// Account and vendor credentials of the benchmark deployment.
const (
	benchUser   = "gateway"
	benchSecret = "loadtest"
	miioToken   = "a1b2c3d4e5f60718293a4b5c6d7e8f90"
	stToken     = "llat-bench"
)

// stack is one deployment wired from the public constructors the way
// cmd/fleetload and examples/livegateway wire theirs. The server process
// serves it over HTTP; the traced replay builds a second one in the
// benchmark process and calls its layers directly.
type stack struct {
	srv      *cloud.Server
	registry *instr.Registry
	metrics  *obs.Registry
	detector *core.Detector

	// fleet workloads
	fleet  *fleet.Fleet
	models *fleet.ModelRegistry

	// home-command
	framework *core.Framework
	collector *core.MultiCollector
	miio      *miio.Client
	st        *smartthings.Client

	closers []func() error
}

// trainModels trains the feature memory exactly as cmd/fleetload does.
func trainModels() (*core.Detector, *core.FeatureMemory, error) {
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		return nil, nil, err
	}
	memory, err := core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
	if err != nil {
		return nil, nil, err
	}
	detector, err := core.DefaultDetector()
	if err != nil {
		return nil, nil, err
	}
	return detector, memory, nil
}

// newFleet builds the spec's fleet with every home registered (and, when
// armed, a per-home trust engine plus the shared sequence judge).
func newFleet(spec serverSpec, detector *core.Detector, models *fleet.ModelRegistry, metrics *obs.Registry) (*fleet.Fleet, error) {
	fl, err := fleet.New(fleet.Config{Detector: detector, Models: models, Shards: spec.Shards, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	var seqSet *seq.Set
	if spec.Armed {
		if seqSet, err = trainSeq(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.Homes; i++ {
		cfg := fleet.HomeConfig{ID: homeID(i)}
		if spec.Armed {
			if cfg.Trust, err = newTrustEngine(); err != nil {
				return nil, err
			}
			cfg.Sequence = seqSet
		}
		if _, err := fl.AddHome(cfg); err != nil {
			return nil, err
		}
	}
	return fl, nil
}

func trainSeq() (*seq.Set, error) {
	return seq.Train(seq.TrainConfig{Seed: 77, Models: []dataset.Model{dataset.ModelWindow}})
}

func newTrustEngine() (*trust.Engine, error) {
	return trust.NewEngine(trust.Config{}, trust.SourceConfig{Name: "push", Required: true})
}

// newStack sets the spec's deployment up and starts serving it.
func newStack(spec serverSpec) (*stack, error) {
	detector, memory, err := trainModels()
	if err != nil {
		return nil, err
	}
	s := &stack{registry: instr.BuiltinRegistry(), metrics: obs.NewRegistry(), detector: detector}
	cfg := cloud.Config{
		Users:    map[string]string{benchUser: benchSecret},
		Registry: s.registry,
		// Forwarding is a no-op: the device layer is outside the
		// measured path and executing would change the home's state.
		Forward: func(in instr.Instruction) error { return nil },
	}
	switch spec.Workload {
	case wlGateway, wlStream:
		if s.models, err = fleet.NewModelRegistry(memory); err != nil {
			return nil, err
		}
		if s.fleet, err = newFleet(spec, detector, s.models, s.metrics); err != nil {
			return nil, err
		}
		cfg.Fleet = s.fleet
	case wlCommand:
		if err := s.wireHome(spec, detector, memory); err != nil {
			s.close()
			return nil, err
		}
		cfg.Gate = s.framework.Gate
		cfg.Collector = s.collector
	default:
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if s.srv, err = cloud.NewServer(cfg); err != nil {
		s.close()
		return nil, err
	}
	s.closers = append(s.closers, s.srv.Close)
	for i := 0; i < spec.Homes; i++ {
		if err := s.srv.BindHome(homeID(i), benchUser); err != nil {
			s.close()
			return nil, err
		}
	}
	if spec.Workload == wlCommand {
		for _, d := range commandDevices() {
			if err := s.srv.BindDevice(d, benchUser); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

// wireHome builds the home-command path of examples/livegateway: a home
// behind a Xiaomi-style encrypted UDP gateway and a SmartThings-style REST
// bridge, collected fresh per command by a MultiCollector over both.
func (s *stack) wireHome(spec serverSpec, detector *core.Detector, memory *core.FeatureMemory) error {
	h, err := home.NewStandard(home.EnvConfig{Seed: spec.EnvSeed})
	if err != nil {
		return err
	}
	if spec.Scene != nil {
		h.Env().Apply(*spec.Scene)
	}
	token, err := miio.ParseToken(miioToken)
	if err != nil {
		return err
	}
	gw, err := miio.NewGateway(miio.GatewayConfig{DeviceID: 0xBEEF, Token: token, Handler: bridge.NewXiaomiHandler(h, s.registry)})
	if err != nil {
		return err
	}
	s.closers = append(s.closers, gw.Close)
	bridgeSrv, err := smartthings.NewServer(smartthings.ServerConfig{Token: stToken, Backend: bridge.NewSTBackend(h, s.registry)})
	if err != nil {
		return err
	}
	s.closers = append(s.closers, bridgeSrv.Close)
	if s.miio, err = miio.Dial(gw.Addr().String(), token, miio.WithTimeout(2*time.Second)); err != nil {
		return err
	}
	s.closers = append(s.closers, s.miio.Close)
	if s.st, err = smartthings.NewClient(bridgeSrv.URL(), stToken); err != nil {
		return err
	}
	retry := resilience.Policy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, Jitter: 0.2, Seed: 6}
	s.collector, err = core.NewMultiCollector(core.MultiConfig{Health: resilience.NewRegistry()},
		core.Source{
			Name: "miio", Required: true, Retry: &retry,
			Collector: &core.MiioCollector{Client: s.miio},
			Breaker:   resilience.NewBreaker(resilience.BreakerConfig{Name: "miio"}),
		},
		core.Source{
			Name: "smartthings", Staleness: 30 * time.Second, Retry: &retry,
			Collector: &core.STCollector{Client: s.st},
			Breaker:   resilience.NewBreaker(resilience.BreakerConfig{Name: "smartthings"}),
		},
	)
	if err != nil {
		return err
	}
	s.framework, err = core.New(core.Config{Detector: detector, Collector: s.collector, Memory: memory})
	return err
}

// close releases everything in reverse set-up order.
func (s *stack) close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// usage is the server process's resource report.
type usage struct {
	CPUNs      int64  `json:"cpu_ns"` // user + system
	MaxRSSKB   int64  `json:"max_rss_kb"`
	TotalAlloc uint64 `json:"total_alloc"`
	NumGC      uint32 `json:"num_gc"`
}

// selfUsage reads this process's CPU time and peak RSS, plus (when
// withMem) the allocator's cumulative counters.
func selfUsage(withMem bool) (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, err
	}
	u := usage{CPUNs: ru.Utime.Nano() + ru.Stime.Nano(), MaxRSSKB: ru.Maxrss}
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		u.TotalAlloc, u.NumGC = ms.TotalAlloc, ms.NumGC
	}
	return u, nil
}

// serveMain is the server process: set the spec's deployment up, print
// "ready <url>", then answer "stats" lines on stdin with a usage JSON line
// until "quit" or end of input.
func serveMain(specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec serverSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	s, err := newStack(spec)
	if err != nil {
		return err
	}
	defer func() { _ = s.close() }()
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "ready %s\n", s.srv.URL())
	if err := out.Flush(); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "stats":
			u, err := selfUsage(true)
			if err != nil {
				return err
			}
			line, err := json.Marshal(u)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\n", line)
			if err := out.Flush(); err != nil {
				return err
			}
		case "quit":
			return s.close()
		}
	}
	return in.Err()
}

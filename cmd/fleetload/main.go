// Command fleetload is the closed-loop load generator for the multi-tenant
// fleet: it trains the IDS once, registers a configurable population of
// homes behind an in-process cloud, then drives seeded per-home instruction
// streams through POST /v1/fleet/authorize from concurrent closed-loop
// workers (each waits for its batch's response before sending the next).
//
// The run is deterministic: every home owns an exclusive RNG derived from
// -seed, sensitive instructions carry their (legal or attack) sensor scene
// inline, and the decision stream folds into a per-home FNV-64 digest
// combined in home order — the printed digest is bit-identical at any
// -workers, -shards, or -batch setting. Throughput and latency, of course,
// are not; those are what the knobs are for.
//
// With -spoof set, a deterministic hash-selected fraction of homes is
// armed with a per-home sensor-trust engine and pre-collapsed by a seeded
// replay plan (warmup pushes whose event times run backwards); every
// in-load context push from a spoofed home is itself a replay, so the
// engines stay collapsed for the whole run. Sensitive instructions from
// spoofed homes must all fail closed — the run errors if any is allowed
// (the unsafe_allows field of the report, which must be 0). Homes outside
// the spoofed fraction take exactly the trust-less path, so a -spoof 0
// run is byte-identical to one without the flag.
//
// With -chain set, a deterministic hash-selected fraction of homes
// (disjoint from the spoofed set) is armed with the per-home sequence
// judge and driven with its own seeded stream: a benign warm-up day, then
// a same-tick automation chain — three status reads and a sensitive tail
// sharing one timestamp, every scene individually tree-legal. The chain
// tails must all be sequence-rejected; the run errors if any is allowed
// (unsafe_chain_allows must be 0). A -chain 0 run is byte-identical to one
// without the flag.
//
// Usage:
//
//	fleetload [-homes 10000] [-shards 16] [-workers 4] [-server-workers 0]
//	          [-steps 5] [-batch 256] [-sensitive 0.7] [-attack 0.3]
//	          [-spoof 0] [-chain 0] [-seed 1] [-profile 127.0.0.1:0] [-out BENCH_fleet.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"iotsid/internal/cloud"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
	"iotsid/internal/trust"

	"math/rand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetload:", err)
		os.Exit(1)
	}
}

// hashFrac maps a home ID to a uniform fraction in [0, 1) — a pure
// function of the ID, so the spoofed set is independent of worker, shard,
// and batch settings. FNV-64a alone avalanches poorly on short
// near-identical keys (sequential home IDs cluster within ~0.04 of each
// other), so a splitmix64 finalizer mixes the hash before the fraction.
func hashFrac(id string) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// modelOps maps each evaluated device model to one sensitive control op —
// the device mix every home draws from.
var modelOps = map[dataset.Model]struct{ op, device string }{
	dataset.ModelWindow:  {"window.open", "win-1"},
	dataset.ModelAircon:  {"aircon.on", "ac-1"},
	dataset.ModelLight:   {"light.on", "lamp-1"},
	dataset.ModelCurtain: {"curtain.open", "cur-1"},
	dataset.ModelTV:      {"tv.on", "tv-1"},
	dataset.ModelKitchen: {"cooker.start", "rc-1"},
}

type report struct {
	Homes         int     `json:"homes"`
	Shards        int     `json:"shards"`
	Workers       int     `json:"workers"`
	ServerWorkers int     `json:"server_workers"`
	Steps         int     `json:"steps"`
	Batch         int     `json:"batch"`
	Sensitive     float64 `json:"sensitive_ratio"`
	Attack        float64 `json:"attack_ratio"`
	Spoof         float64 `json:"spoof_ratio"`
	SpoofedHomes  int     `json:"spoofed_homes"`
	Chain         float64 `json:"chain_ratio"`
	ChainedHomes  int     `json:"chained_homes"`
	Seed          int64   `json:"seed"`
	GOMAXPROCS    int     `json:"gomaxprocs"`

	Decisions int `json:"decisions"`
	Allowed   int `json:"allowed"`
	Rejected  int `json:"rejected"`
	Requests  int `json:"requests"`
	// UnsafeAllows counts sensitive instructions allowed for spoofed
	// homes — the trust contract demands zero; the run errors otherwise.
	UnsafeAllows int `json:"unsafe_allows"`
	// LowTrustHomes is the fleet's end-of-run low-trust count; it must
	// equal spoofed_homes (every spoofed engine collapsed and stayed so).
	LowTrustHomes int `json:"low_trust_homes"`
	// ChainAttempts counts same-tick chain tails fired at sequence-armed
	// homes; ChainBlocked of them were sequence-rejected, and
	// UnsafeChainAllows slipped through (must be 0 — the run errors).
	// ChainFalseBlocks counts benign warm-up events from chained homes
	// wrongly rejected — the sequence judge's availability cost.
	ChainAttempts     int     `json:"chain_attempts"`
	ChainBlocked      int     `json:"chain_blocked"`
	UnsafeChainAllows int     `json:"unsafe_chain_allows"`
	ChainFalseBlocks  int     `json:"chain_false_blocks"`
	SeqAnomalies      uint64  `json:"seq_anomalies"`
	WallSeconds       float64 `json:"wall_seconds"`
	DecPerSec         float64 `json:"decisions_per_sec"`
	ReqPerSec         float64 `json:"requests_per_sec"`

	P50Ms  float64 `json:"latency_p50_ms"`
	P95Ms  float64 `json:"latency_p95_ms"`
	P99Ms  float64 `json:"latency_p99_ms"`
	MaxMs  float64 `json:"latency_max_ms"`
	Digest string  `json:"digest"`
}

func run() error {
	homes := flag.Int("homes", 10000, "home population")
	shards := flag.Int("shards", 16, "fleet shard count")
	workers := flag.Int("workers", 4, "closed-loop client workers")
	serverWorkers := flag.Int("server-workers", 0, "per-request shard fan-out on the server (0 = GOMAXPROCS)")
	steps := flag.Int("steps", 5, "instruction rounds per home")
	batch := flag.Int("batch", 256, "items per /v1/fleet/authorize request")
	sensitiveRatio := flag.Float64("sensitive", 0.7, "probability a step issues a sensitive control op (rest are status reads)")
	attackRatio := flag.Float64("attack", 0.3, "probability a sensitive op carries an attack scene instead of a legal one")
	spoofRatio := flag.Float64("spoof", 0, "fraction of homes armed with a trust engine and fed a seeded replay spoofing plan (0 = no trust layer at all)")
	chainRatio := flag.Float64("chain", 0, "fraction of homes armed with the sequence judge and attacked with a same-tick automation chain (0 = no sequence layer at all)")
	seed := flag.Int64("seed", 1, "load seed (same seed ⇒ same digest at any worker/shard/batch count)")
	profileAddr := flag.String("profile", "", "serve /metrics and /debug/pprof on this address during the run (empty = disabled)")
	outPath := flag.String("out", "", "write the JSON report to this file")
	flag.Parse()
	if *homes <= 0 || *steps <= 0 || *batch <= 0 || *workers <= 0 {
		return fmt.Errorf("-homes, -steps, -batch and -workers must be positive")
	}
	if *spoofRatio < 0 || *spoofRatio > 1 {
		return fmt.Errorf("-spoof must be in [0, 1]")
	}
	if *chainRatio < 0 || *chainRatio > 1 {
		return fmt.Errorf("-chain must be in [0, 1]")
	}

	metrics := obs.Default()

	fmt.Printf("training feature memory (corpus seed 1, build 42, train 9)...\n")
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		return err
	}
	memory, err := core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
	if err != nil {
		return err
	}
	detector, err := core.DefaultDetector()
	if err != nil {
		return err
	}
	registry, err := fleet.NewModelRegistry(memory)
	if err != nil {
		return err
	}
	fl, err := fleet.New(fleet.Config{
		Detector: detector,
		Models:   registry,
		Shards:   *shards,
		Metrics:  metrics,
	})
	if err != nil {
		return err
	}
	// Spoofed- and chained-home selection is a pure hash of the home ID,
	// so both sets are identical at any worker/shard/batch setting; a zero
	// ratio arms nothing and leaves every home on the exact unarmed path.
	// The chained set is salted differently and excludes spoofed homes —
	// a collapsed trust engine fails everything closed, which would mask
	// what the chain run is measuring.
	var seqSet *seq.Set
	if *chainRatio > 0 {
		seqSet, err = seq.Train(seq.TrainConfig{Seed: *seed + 77, Models: []dataset.Model{dataset.ModelWindow}})
		if err != nil {
			return err
		}
	}
	spoofed := make([]bool, *homes)
	chained := make([]bool, *homes)
	spoofedCount, chainedCount := 0, 0
	ids := make([]string, *homes)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%06d", i)
		cfg := fleet.HomeConfig{ID: ids[i]}
		if *spoofRatio > 0 && hashFrac(ids[i]) < *spoofRatio {
			spoofed[i] = true
			spoofedCount++
			eng, err := trust.NewEngine(trust.Config{},
				trust.SourceConfig{Name: "push", Required: true})
			if err != nil {
				return err
			}
			cfg.Trust = eng
		} else if *chainRatio > 0 && hashFrac("seq|"+ids[i]) < *chainRatio {
			chained[i] = true
			chainedCount++
			cfg.Sequence = seqSet
		}
		if _, err := fl.AddHome(cfg); err != nil {
			return err
		}
	}
	fmt.Printf("fleet: %d homes across %d shards, %d shared compiled models\n",
		fl.HomeCount(), fl.ShardCount(), fl.Registry().Len())

	srv, err := cloud.NewServer(cloud.Config{
		Users:        map[string]string{"gateway": "loadtest"},
		Registry:     instr.BuiltinRegistry(),
		Forward:      func(in instr.Instruction) error { return nil },
		Fleet:        fl,
		FleetWorkers: *serverWorkers,
	})
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	// The fleet endpoints enforce home-to-account binding; every load home
	// belongs to the gateway account.
	for _, id := range ids {
		if err := srv.BindHome(id, "gateway"); err != nil {
			return err
		}
	}

	if spoofedCount > 0 {
		// The seeded spoofing plan: three warmup pushes per spoofed home
		// whose event times run backwards — the replay violations collapse
		// each engine below threshold before the load starts. The warmup
		// stamps sit an hour after the scenes' fixed event time, so every
		// in-load context push from a spoofed home is itself a replay and
		// the engine never recovers.
		warm, err := dataset.LegalSceneSeeded(dataset.ModelWindow, *seed+4242)
		if err != nil {
			return err
		}
		t0 := warm.At.Add(time.Hour)
		for i := range ids {
			if !spoofed[i] {
				continue
			}
			for k := 0; k < 3; k++ {
				snap := warm
				snap.At = t0.Add(-time.Duration(k) * 5 * time.Second)
				if err := fl.PushContext(ids[i], snap); err != nil {
					return err
				}
			}
		}
		fmt.Printf("spoof: %d/%d homes armed, %d collapsed by the replay plan\n",
			spoofedCount, *homes, fl.LowTrustHomes())
	}

	if *profileAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", *profileAddr)
		if err != nil {
			return fmt.Errorf("profile listener: %w", err)
		}
		ps := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = ps.Serve(ln) }()
		defer func() { _ = ps.Close() }()
		fmt.Printf("profiling: http://%s/debug/pprof/ and /metrics\n", ln.Addr())
	}

	// Per-home exclusive state: RNG and decision digest. Worker w owns
	// homes with index i ≡ w (mod workers), so no per-home state is ever
	// shared across workers and the digest needs no locks.
	rngs := make([]*rand.Rand, *homes)
	digests := make([]uint64, *homes)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(*seed + 9973*int64(i)))
		digests[i] = 14695981039346656037 // FNV-64 offset basis
	}
	models := dataset.Models()

	// Chained homes run their own seeded stream instead of the random mix:
	// *steps-1 benign warm-up events, then the same-tick chain. Plans are
	// pure functions of the seed and home index, so they are independent
	// of worker, shard, and batch settings.
	plans := make([][]seq.TraceEvent, *homes)
	bursts := make([]seq.TraceEvent, *homes)
	if chainedCount > 0 {
		for i := range ids {
			if !chained[i] {
				continue
			}
			plan := seq.LegalTrace(rand.New(rand.NewSource(*seed+5741*int64(i))), *steps-1, 8, 13)
			plans[i] = plan
			base := seq.TraceEvent{At: time.Date(2021, 4, 1, 11, 0, 0, 0, time.UTC), Hour: 11, Voice: true, Occupied: true}
			if len(plan) > 0 {
				last := plan[len(plan)-1]
				base = seq.TraceEvent{At: last.At.Add(40 * time.Second), Hour: last.Hour, Voice: true, Occupied: last.Occupied}
			}
			bursts[i] = base
		}
		fmt.Printf("chain: %d/%d homes sequence-armed, one same-tick chain each\n", chainedCount, *homes)
	}

	type workerStats struct {
		latencies     []time.Duration
		requests      int
		decisions     int
		allowed       int
		rejected      int
		unsafe        int
		chainAttempts int
		chainBlocked  int
		unsafeChain   int
		chainFalse    int
		err           error
	}
	stats := make([]workerStats, *workers)

	fmt.Printf("load: %d steps × %d homes, %d workers, batch %d, %.0f%% sensitive / %.0f%% attack\n",
		*steps, *homes, *workers, *batch, *sensitiveRatio*100, *attackRatio*100)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			c, err := cloud.NewClient(srv.URL())
			if err == nil {
				err = c.Login("gateway", "loadtest")
			}
			if err != nil {
				st.err = err
				return
			}
			items := make([]cloud.FleetBatchItem, 0, *batch)
			owners := make([]int, 0, *batch)   // home index per queued item
			attacks := make([]bool, 0, *batch) // true for chain tails
			flush := func() error {
				if len(items) == 0 {
					return nil
				}
				t0 := time.Now()
				results, err := c.FleetAuthorize(items)
				if err != nil {
					return err
				}
				st.latencies = append(st.latencies, time.Since(t0))
				st.requests++
				if len(results) != len(items) {
					return fmt.Errorf("batch returned %d results for %d items", len(results), len(items))
				}
				for k, res := range results {
					if res.Error != "" {
						return fmt.Errorf("item %d (%s): %s", k, items[k].Home, res.Error)
					}
					st.decisions++
					if res.Allowed {
						st.allowed++
					} else {
						st.rejected++
					}
					if res.Allowed && res.Sensitive && spoofed[owners[k]] {
						st.unsafe++
					}
					if attacks[k] {
						st.chainAttempts++
						if res.Allowed {
							st.unsafeChain++
						} else {
							st.chainBlocked++
						}
					} else if chained[owners[k]] && !res.Allowed {
						st.chainFalse++
					}
					// Fold (allowed, sensitive) into the owning home's
					// digest — FNV-64a over two tag bytes.
					i := owners[k]
					d := digests[i]
					b0, b1 := byte('d'), byte('n')
					if res.Allowed {
						b0 = 'a'
					}
					if res.Sensitive {
						b1 = 's'
					}
					d = (d ^ uint64(b0)) * 1099511628211
					d = (d ^ uint64(b1)) * 1099511628211
					digests[i] = d
				}
				items = items[:0]
				owners = owners[:0]
				attacks = attacks[:0]
				return nil
			}
			for s := 0; s < *steps; s++ {
				for i := w; i < *homes; i += *workers {
					if chained[i] {
						if s < *steps-1 {
							e := plans[i][s]
							op := "window.get_state"
							if e.Sensitive {
								op = "window.open"
							}
							snap := e.WindowScene()
							items = append(items, cloud.FleetItem(ids[i], op, "win-1", &snap))
							owners = append(owners, i)
							attacks = append(attacks, false)
						} else {
							// Final step: the same-tick chain, kept whole in
							// one request so the home's stream stays ordered.
							if len(items)+4 > *batch {
								if err := flush(); err != nil {
									st.err = err
									return
								}
							}
							for k := 0; k < 3; k++ {
								snap := bursts[i].WindowScene()
								items = append(items, cloud.FleetItem(ids[i], "window.get_state", "win-1", &snap))
								owners = append(owners, i)
								attacks = append(attacks, false)
							}
							tail := bursts[i]
							tail.Sensitive = true
							snap := tail.WindowScene()
							items = append(items, cloud.FleetItem(ids[i], "window.open", "win-1", &snap))
							owners = append(owners, i)
							attacks = append(attacks, true)
						}
						if len(items) >= *batch {
							if err := flush(); err != nil {
								st.err = err
								return
							}
						}
						continue
					}
					rng := rngs[i]
					if rng.Float64() < *sensitiveRatio {
						m := models[rng.Intn(len(models))]
						spec := modelOps[m]
						var snap sensor.Snapshot
						var err error
						if rng.Float64() < *attackRatio {
							snap, err = dataset.AttackScene(m, rng)
						} else {
							snap, err = dataset.LegalScene(m, rng)
						}
						if err != nil {
							st.err = err
							return
						}
						items = append(items, cloud.FleetItem(ids[i], spec.op, spec.device, &snap))
					} else {
						items = append(items, cloud.FleetItem(ids[i], "light.get_state", "lamp-1", nil))
					}
					owners = append(owners, i)
					attacks = append(attacks, false)
					if len(items) == *batch {
						if err := flush(); err != nil {
							st.err = err
							return
						}
					}
				}
				// Flush at step boundaries so each home's stream stays
				// ordered and the digest is schedule-independent.
				if err := flush(); err != nil {
					st.err = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := report{
		Homes: *homes, Shards: *shards, Workers: *workers, ServerWorkers: *serverWorkers,
		Steps: *steps, Batch: *batch, Sensitive: *sensitiveRatio, Attack: *attackRatio,
		Spoof: *spoofRatio, SpoofedHomes: spoofedCount,
		Chain: *chainRatio, ChainedHomes: chainedCount,
		Seed: *seed, GOMAXPROCS: runtime.GOMAXPROCS(0),
		WallSeconds:   wall.Seconds(),
		LowTrustHomes: fl.LowTrustHomes(),
		SeqAnomalies:  fl.SeqAnomalies(),
	}
	var lats []time.Duration
	for w := range stats {
		if stats[w].err != nil {
			return fmt.Errorf("worker %d: %w", w, stats[w].err)
		}
		rep.Requests += stats[w].requests
		rep.Decisions += stats[w].decisions
		rep.Allowed += stats[w].allowed
		rep.Rejected += stats[w].rejected
		rep.UnsafeAllows += stats[w].unsafe
		rep.ChainAttempts += stats[w].chainAttempts
		rep.ChainBlocked += stats[w].chainBlocked
		rep.UnsafeChainAllows += stats[w].unsafeChain
		rep.ChainFalseBlocks += stats[w].chainFalse
		lats = append(lats, stats[w].latencies...)
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		k := int(p * float64(len(lats)-1))
		return float64(lats[k]) / float64(time.Millisecond)
	}
	rep.P50Ms, rep.P95Ms, rep.P99Ms = pct(0.50), pct(0.95), pct(0.99)
	if len(lats) > 0 {
		rep.MaxMs = float64(lats[len(lats)-1]) / float64(time.Millisecond)
	}
	rep.DecPerSec = float64(rep.Decisions) / wall.Seconds()
	rep.ReqPerSec = float64(rep.Requests) / wall.Seconds()

	// Combine the per-home digests in home-index order: the stream digest.
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range digests {
		for b := 0; b < 8; b++ {
			buf[b] = byte(d >> (8 * b))
		}
		_, _ = h.Write(buf[:])
	}
	rep.Digest = fmt.Sprintf("%016x", h.Sum64())

	fmt.Printf("\n%-22s %12s\n", "metric", "value")
	fmt.Printf("%-22s %12d\n", "decisions", rep.Decisions)
	fmt.Printf("%-22s %12d\n", "  allowed", rep.Allowed)
	fmt.Printf("%-22s %12d\n", "  rejected", rep.Rejected)
	fmt.Printf("%-22s %12d\n", "requests", rep.Requests)
	fmt.Printf("%-22s %12.2f\n", "wall seconds", rep.WallSeconds)
	fmt.Printf("%-22s %12.0f\n", "decisions/sec", rep.DecPerSec)
	fmt.Printf("%-22s %12.0f\n", "requests/sec", rep.ReqPerSec)
	fmt.Printf("%-22s %12.2f\n", "latency p50 (ms)", rep.P50Ms)
	fmt.Printf("%-22s %12.2f\n", "latency p95 (ms)", rep.P95Ms)
	fmt.Printf("%-22s %12.2f\n", "latency p99 (ms)", rep.P99Ms)
	fmt.Printf("%-22s %12.2f\n", "latency max (ms)", rep.MaxMs)
	if spoofedCount > 0 {
		fmt.Printf("%-22s %12d\n", "spoofed homes", rep.SpoofedHomes)
		fmt.Printf("%-22s %12d\n", "low-trust homes", rep.LowTrustHomes)
		fmt.Printf("%-22s %12d\n", "unsafe allows", rep.UnsafeAllows)
	}
	if chainedCount > 0 {
		fmt.Printf("%-22s %12d\n", "chained homes", rep.ChainedHomes)
		fmt.Printf("%-22s %12d\n", "chains blocked", rep.ChainBlocked)
		fmt.Printf("%-22s %12d\n", "chain false blocks", rep.ChainFalseBlocks)
		fmt.Printf("%-22s %12d\n", "seq anomalies", rep.SeqAnomalies)
		fmt.Printf("%-22s %12d\n", "unsafe chain allows", rep.UnsafeChainAllows)
	}
	fmt.Printf("%-22s %12s\n", "digest", rep.Digest)

	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *outPath)
	}
	if rep.UnsafeAllows > 0 {
		return fmt.Errorf("%d sensitive instructions allowed for spoofed homes — the trust gate leaked", rep.UnsafeAllows)
	}
	if rep.UnsafeChainAllows > 0 {
		return fmt.Errorf("%d chain tails allowed for sequence-armed homes — the sequence gate leaked", rep.UnsafeChainAllows)
	}
	return nil
}

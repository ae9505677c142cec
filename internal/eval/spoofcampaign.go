package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

// SpoofKind selects the sensor-spoofing attack family of a scenario.
type SpoofKind int

// The spoofing families of the campaign: clean (no attack — the
// availability control), replay (old timestamps re-pushed), slow drift
// (per-push creep sized to evade the step envelope), stuck-at (the last
// honest snapshot frozen and re-reported), and spike (one impossible
// jump).
const (
	SpoofClean SpoofKind = iota
	SpoofReplay
	SpoofSlowDrift
	SpoofStuckAt
	SpoofSpike
)

// String implements fmt.Stringer.
func (k SpoofKind) String() string {
	switch k {
	case SpoofClean:
		return "clean"
	case SpoofReplay:
		return "replay"
	case SpoofSlowDrift:
		return "slow_drift"
	case SpoofStuckAt:
		return "stuck_at"
	case SpoofSpike:
		return "spike"
	}
	return fmt.Sprintf("spoof(%d)", int(k))
}

// SpoofScenario describes one spoofing regime: the attack family plus
// the corrupted feature and magnitude for the numeric families.
type SpoofScenario struct {
	Name string    `json:"name"`
	Kind SpoofKind `json:"kind"`
	// Feature is the numeric feature the drift/spike families corrupt.
	Feature sensor.Feature `json:"feature,omitempty"`
	// Magnitude is the spike offset or the per-push drift rate.
	Magnitude float64 `json:"magnitude,omitempty"`
}

// DefaultSpoofScenarios is the published spoofing campaign: the clean
// control plus the four attack families of §III-A's sensor-spoofing twin
// — an attacker who owns the push channel and fabricates fresh,
// well-typed context.
func DefaultSpoofScenarios() []SpoofScenario {
	return []SpoofScenario{
		{Name: "clean", Kind: SpoofClean},
		{Name: "replay", Kind: SpoofReplay},
		{Name: "slow_drift", Kind: SpoofSlowDrift, Feature: sensor.FeatAirQuality, Magnitude: 5},
		{Name: "stuck_at", Kind: SpoofStuckAt},
		{Name: "spike", Kind: SpoofSpike, Feature: sensor.FeatAirQuality, Magnitude: 600},
	}
}

// SpoofScenarioResult tallies one spoofing scenario across its rounds.
// The Tally counts sensitive instructions: attacks are the ones fired
// while the feed was spoofed, legitimate ones those fired while it was
// honest (the post-baseline clean phase, plus the clean scenario's whole
// firing phase).
type SpoofScenarioResult struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
	Tally
	// UnsafeAllows counts sensitive instructions ALLOWED on a spoofed
	// feed — the trust contract demands zero.
	UnsafeAllows int `json:"unsafe_allows"`
	// FailClosed counts decisions rejected explicitly by the trust gate
	// (rather than by tree judgment on the fabricated context).
	FailClosed int `json:"fail_closed"`
	// TrustViolations totals the engine's violation count.
	TrustViolations uint64 `json:"trust_violations"`
	// MinFinalScore is the lowest end-of-round trust score across rounds.
	MinFinalScore float64 `json:"min_final_score"`
	// TrustDigest fingerprints every round's full score trajectory
	// (FNV-64a over the float bits, chained in round order) — the
	// bit-identity witness the determinism test compares across worker
	// counts.
	TrustDigest string `json:"trust_digest"`
}

// spoofRoundResult is one round's tally plus its trust evidence.
type spoofRoundResult struct {
	Tally
	failClosed int
	violations uint64
	finalScore float64
	digest     uint64
}

// Campaign phase lengths. Clean establishes the behavioral baseline
// (trust.Config default BaselineObs = 8) and then measures honest
// availability; the attacker then establishes the spoofed feed before
// firing sensitive instructions against the fabricated context.
const (
	spoofCleanPushes   = 12 // baseline (8) + post-baseline honest traffic
	spoofEstablish     = 12 // corrupted pushes before the attacker fires
	spoofFiringPushes  = 6  // corrupted pushes, each followed by a sensitive instruction
	spoofPushInterval  = 5 * time.Second
	spoofLegitFireFrom = 8 // first clean push index (0-based) that also fires
)

// SpoofCampaign runs the default scenarios for the given number of
// rounds. Each (scenario, round) unit is fully self-contained — its own
// trust engine, epoch store, framework, fake clock and seeded scene —
// so the tables are bit-identical at any worker count.
func (s *Suite) SpoofCampaign(ctx context.Context, rounds int) ([]SpoofScenarioResult, error) {
	scenarios := DefaultSpoofScenarios()
	units, err := runUnits(ctx, s, len(scenarios), rounds, func(sc, _ int, u int64) (spoofRoundResult, error) {
		return s.spoofRound(ctx, scenarios[sc], u)
	})
	if err != nil {
		return nil, err
	}
	out := make([]SpoofScenarioResult, len(scenarios))
	for i, rows := range units {
		r := &out[i]
		r.Name, r.Rounds, r.MinFinalScore = scenarios[i].Name, rounds, math.Inf(1)
		digest := fnvOffset
		for _, o := range rows {
			r.Tally.Add(o.Tally)
			r.FailClosed += o.failClosed
			r.TrustViolations += o.violations
			r.MinFinalScore = math.Min(r.MinFinalScore, o.finalScore)
			digest = fnvChain(digest, o.digest)
		}
		r.UnsafeAllows = r.AttackAttempts - r.AttackBlocked
		r.TrustDigest = fmt.Sprintf("%016x", digest)
	}
	return out, nil
}

// spoofRound runs one self-contained round of one scenario against a
// push-path deployment: trust engine fed by the epoch store's Observe
// hook, EpochCollector gating the framework's hot path.
func (s *Suite) spoofRound(ctx context.Context, sc SpoofScenario, unit int64) (spoofRoundResult, error) {
	detector, err := core.DefaultDetector()
	if err != nil {
		return spoofRoundResult{}, err
	}
	eng, err := trust.NewEngine(trust.Config{},
		trust.SourceConfig{Name: "feed", Required: true})
	if err != nil {
		return spoofRoundResult{}, err
	}
	now := time.Unix(1_600_000_000, 0)
	clock := func() time.Time { return now }
	st, err := epoch.NewStore(epoch.Config{
		Now: clock,
		Observe: func(src string, d sensor.Snapshot, at time.Time) {
			eng.Observe(src, d, at)
		},
	}, epoch.SourceConfig{Name: "feed", Required: true, FreshFor: time.Hour})
	if err != nil {
		return spoofRoundResult{}, err
	}
	coll, err := core.NewEpochCollector(core.EpochCollectorConfig{Now: clock, Trust: eng}, st)
	if err != nil {
		return spoofRoundResult{}, err
	}
	framework, err := core.New(core.Config{Detector: detector, Collector: coll, Memory: s.Memory})
	if err != nil {
		return spoofRoundResult{}, err
	}
	in, err := instr.BuiltinRegistry().Build("window.open", "win-1", instr.OriginUnknown, nil)
	if err != nil {
		return spoofRoundResult{}, err
	}

	// The honest stream: one legal base scene per round plus small
	// deterministic jitter, so the baseline learns a live sensor (never
	// bit-identical, small steps, stable envelope) and the scene stays
	// legal for the window tree.
	base, err := dataset.LegalScene(dataset.ModelWindow, rand.New(rand.NewSource(s.Config.Seed+909+unit)))
	if err != nil {
		return spoofRoundResult{}, err
	}
	t0 := now
	cleanSnap := func(i int) sensor.Snapshot {
		out := base
		out.At = t0.Add(time.Duration(i) * spoofPushInterval)
		if v, ok := out.Number(sensor.FeatTempIndoor); ok {
			out.Set(sensor.FeatTempIndoor, sensor.Number(v+0.2*math.Sin(float64(i)*0.9)))
		}
		if v, ok := out.Number(sensor.FeatAirQuality); ok {
			out.Set(sensor.FeatAirQuality, sensor.Number(v+2*math.Cos(float64(i)*0.7)))
		}
		return out
	}
	// spoofSnap fabricates attack push k (0-based across establishment
	// and firing). Every family is a pure function of k, reusing the
	// chaos layer's numeric corruption modes where one feature is bent.
	spoofSnap := func(k int) sensor.Snapshot {
		i := spoofCleanPushes + k
		switch sc.Kind {
		case SpoofReplay:
			// Honest-looking values, event time running backwards from
			// the newest accepted push.
			out := cleanSnap(i)
			out.At = t0.Add(time.Duration(spoofCleanPushes-2-k) * spoofPushInterval)
			return out
		case SpoofSlowDrift:
			return core.NumericCorruption(core.CorruptDrift, sc.Feature, sc.Magnitude)(k, cleanSnap(i))
		case SpoofStuckAt:
			// The last honest snapshot, frozen, with only the stamp
			// advancing — a pinned sensor or a dead cache replayed live.
			out := cleanSnap(spoofCleanPushes - 1)
			out.At = t0.Add(time.Duration(i) * spoofPushInterval)
			return out
		case SpoofSpike:
			return core.NumericCorruption(core.CorruptSpike, sc.Feature, sc.Magnitude)(k, cleanSnap(i))
		default: // SpoofClean: the honest stream continues
			return cleanSnap(i)
		}
	}

	res := spoofRoundResult{digest: fnvOffset}
	fold := func() {
		score, _ := eng.Score("feed")
		res.digest = fnvFold(res.digest, math.Float64bits(score))
	}
	push := func(snap sensor.Snapshot) error {
		now = snap.At
		if err := st.Push("feed", snap); err != nil {
			// Replayed deltas are dropped by the store (out_of_order);
			// the trust engine has already scored them via the hook.
			if sc.Kind != SpoofReplay {
				return err
			}
		}
		fold()
		return nil
	}
	fire := func() (allowed bool, failedClosed bool, err error) {
		callCtx, cancel := context.WithTimeout(ctx, time.Second)
		dec, err := framework.Authorize(callCtx, in)
		cancel()
		if err != nil {
			return false, false, err
		}
		return dec.Allowed, dec.Reason == core.ReasonLowTrust.String(), nil
	}

	// Phase 1 — honest traffic: learn the baseline, then measure
	// availability on the live legal scene.
	for i := 0; i < spoofCleanPushes; i++ {
		if err := push(cleanSnap(i)); err != nil {
			return spoofRoundResult{}, err
		}
		if i >= spoofLegitFireFrom {
			allowed, _, err := fire()
			if err != nil {
				return spoofRoundResult{}, err
			}
			res.Legit(!allowed)
		}
	}
	// Phase 2 — the attacker establishes the spoofed feed (no commands
	// yet: manipulation precedes the instruction it enables).
	for k := 0; k < spoofEstablish; k++ {
		if err := push(spoofSnap(k)); err != nil {
			return spoofRoundResult{}, err
		}
	}
	// Phase 3 — firing: each fabricated push is followed by the
	// sensitive instruction it was built to enable. The replay family's
	// merged view is still the last honest (legal, fresh) scene, so only
	// the trust gate stands between the attacker and an allow.
	for k := 0; k < spoofFiringPushes; k++ {
		if err := push(spoofSnap(spoofEstablish + k)); err != nil {
			return spoofRoundResult{}, err
		}
		allowed, failedClosed, err := fire()
		if err != nil {
			return spoofRoundResult{}, err
		}
		if failedClosed {
			res.failClosed++
		}
		if sc.Kind == SpoofClean {
			res.Legit(!allowed)
		} else {
			res.Attack(!allowed)
		}
	}
	report := eng.Report()[0]
	res.violations, res.finalScore = report.Violations, report.Score
	return res, nil
}

// RenderSpoofCampaign formats the spoofing-campaign table: availability
// against safety per attack family, with the trust evidence alongside.
func (s *Suite) RenderSpoofCampaign(ctx context.Context, rounds int) (string, error) {
	results, err := s.SpoofCampaign(ctx, rounds)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Spoofing campaign — %d rounds per scenario, sensitive instructions only\n", rounds)
	fmt.Fprintf(&b, "  %-12s %6s %7s %12s %11s %10s %7s  %s\n",
		"scenario", "avail", "safety", "fail-closed", "violations", "min-score", "unsafe", "digest")
	for _, r := range results {
		fmt.Fprintf(&b, "  %-12s %5.1f%% %6.1f%% %12d %11d %10.3f %7d  %s\n",
			r.Name, 100*r.Availability(), 100*r.Safety(),
			r.FailClosed, r.TrustViolations, r.MinFinalScore, r.UnsafeAllows, r.TrustDigest)
	}
	return b.String(), nil
}

package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/resilience"
)

// FaultScenario describes one fault-injection regime for the resilience
// campaign: per-source fault probabilities for the chaos wrappers, the
// optional source's staleness budget, and the merge order.
type FaultScenario struct {
	Name string `json:"name"`
	// ReqError / ReqHang are the fault probabilities of the required source.
	ReqError float64 `json:"req_error"`
	ReqHang  float64 `json:"req_hang"`
	// OptError / OptHang / OptByzantine are the optional source's.
	OptError     float64 `json:"opt_error"`
	OptHang      float64 `json:"opt_hang"`
	OptByzantine float64 `json:"opt_byzantine"`
	// OptBlackoutAfter, when positive, overrides the stochastic optional
	// plan: the first N calls succeed, every later call errors — the
	// clean outage that walks the fresh → stale → missing ladder.
	OptBlackoutAfter int `json:"opt_blackout_after"`
	// Staleness is the optional source's last-good serving budget.
	Staleness time.Duration `json:"staleness"`
	// OptionalOverrides declares the optional source after the required one,
	// so its (possibly corrupted) features win shared-feature merges. The
	// default order lets the fresh required feed win.
	OptionalOverrides bool `json:"optional_overrides"`
}

// DefaultFaultScenarios is the published fault campaign: a healthy
// baseline, a flapping optional source absorbed by bounded staleness, a
// clean optional blackout walking the staleness ladder, a dead required
// source forcing fail-closed, and a byzantine optional source allowed to
// win merges.
func DefaultFaultScenarios() []FaultScenario {
	return []FaultScenario{
		{Name: "baseline", Staleness: 30 * time.Second},
		{Name: "flaky_optional", OptError: 0.35, OptHang: 0.1, Staleness: 5 * time.Minute},
		{Name: "optional_blackout", OptBlackoutAfter: 3, Staleness: 45 * time.Second},
		{Name: "required_down", ReqError: 1, Staleness: 30 * time.Second},
		{Name: "byzantine_optional", OptByzantine: 1, Staleness: 30 * time.Second, OptionalOverrides: true},
	}
}

// FaultScenarioResult tallies one scenario across its rounds. The Tally
// counts only sensitive instructions — the non-sensitive ones (the TV
// class) are outside the fail-closed contract. Attacks are fired from
// staged attack scenes; one that gets no decision at all still counts as
// blocked, since nothing was forwarded. Legitimate commands are the same
// instructions from legal scenes; one not served counts as blocked.
type FaultScenarioResult struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
	Tally
	// FailClosed counts decisions rejected explicitly because a required
	// source was missing.
	FailClosed int `json:"fail_closed"`
	// StaleServes counts commands decided while the optional source served
	// from its bounded-staleness fallback.
	StaleServes int `json:"stale_serves"`
	// CollectErrors counts commands that got no decision at all (no context
	// from any source).
	CollectErrors int `json:"collect_errors"`
	// UnsafeAllows counts sensitive instructions ALLOWED while the required
	// source was missing — the fail-closed contract demands zero.
	UnsafeAllows int `json:"unsafe_allows"`
}

// optPlan builds the optional source's fault plan for a scenario.
func (sc FaultScenario) optPlan(seed int64) func(int) core.FaultKind {
	if sc.OptBlackoutAfter > 0 {
		n := sc.OptBlackoutAfter
		return func(call int) core.FaultKind {
			if call < n {
				return core.FaultNone
			}
			return core.FaultError
		}
	}
	return core.ChaosPlan(seed, sc.OptError, sc.OptHang, sc.OptByzantine)
}

// FaultCampaign runs every default scenario for the given number of
// rounds against a live two-source deployment: a required chaos-wrapped
// sim feed and an optional chaos-wrapped sim feed behind retry policies,
// a breaker on the required source, bounded staleness on the optional
// one, and a health registry observed after every command.
//
// Each (scenario, round) unit is fully self-contained — its own home,
// framework, fake clock, chaos plans and scene generator, all seeded from
// the unit index — so the tables are identical at any worker count. ctx
// is the parent of every per-call timeout the rounds impose.
func (s *Suite) FaultCampaign(ctx context.Context, rounds int) ([]FaultScenarioResult, error) {
	scenarios := DefaultFaultScenarios()
	units, err := runUnits(ctx, s, len(scenarios), rounds, func(sc, _ int, u int64) (FaultScenarioResult, error) {
		return s.faultRound(ctx, scenarios[sc], u)
	})
	if err != nil {
		return nil, err
	}
	out := make([]FaultScenarioResult, len(scenarios))
	for i, rows := range units {
		r := &out[i]
		r.Name, r.Rounds = scenarios[i].Name, rounds
		for _, o := range rows {
			r.Tally.Add(o.Tally)
			r.FailClosed += o.FailClosed
			r.StaleServes += o.StaleServes
			r.CollectErrors += o.CollectErrors
			r.UnsafeAllows += o.UnsafeAllows
		}
	}
	return out, nil
}

// faultRound runs one self-contained round of one scenario.
func (s *Suite) faultRound(ctx context.Context, sc FaultScenario, unit int64) (FaultScenarioResult, error) {
	h, err := home.NewStandard(home.EnvConfig{Seed: s.Config.Seed + 303})
	if err != nil {
		return FaultScenarioResult{}, err
	}
	detector, err := core.DefaultDetector()
	if err != nil {
		return FaultScenarioResult{}, err
	}
	registry := instr.BuiltinRegistry()

	// The fake clock: advanced between commands so staleness budgets and
	// breaker timeouts play out without wall-clock time.
	now := time.Unix(1_600_000_000, 0)
	clock := func() time.Time { return now }

	reqChaos := &core.ChaosCollector{
		Inner: &core.SimCollector{Env: h.Env()},
		Plan:  core.ChaosPlan(s.Config.Seed+7*unit, sc.ReqError, sc.ReqHang, 0),
	}
	optChaos := &core.ChaosCollector{
		Inner: &core.SimCollector{Env: h.Env()},
		Plan:  sc.optPlan(s.Config.Seed + 7*unit + 1),
	}
	retry := resilience.Policy{
		MaxAttempts:    2,
		AttemptTimeout: 10 * time.Millisecond, // releases hang faults
		Seed:           s.Config.Seed + unit,
		Sleep:          func(context.Context, time.Duration) error { return nil },
	}
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		Name: "required", FailureThreshold: 3, OpenTimeout: 2 * time.Minute, Now: clock,
	})
	required := core.Source{
		Name: "required", Required: true, Collector: reqChaos, Retry: &retry, Breaker: breaker,
	}
	optional := core.Source{
		Name: "optional", Staleness: sc.Staleness, Collector: optChaos, Retry: &retry,
	}
	order := []core.Source{optional, required}
	if sc.OptionalOverrides {
		order = []core.Source{required, optional}
	}
	health := resilience.NewRegistry()
	mc, err := core.NewMultiCollector(core.MultiConfig{Now: clock, Health: health}, order...)
	if err != nil {
		return FaultScenarioResult{}, err
	}
	framework, err := core.New(core.Config{Detector: detector, Collector: mc, Memory: s.Memory})
	if err != nil {
		return FaultScenarioResult{}, err
	}

	rng := rand.New(rand.NewSource(s.Config.Seed + 505 + unit))
	var res FaultScenarioResult

	// sourceState reads one source's health row after a command.
	sourceState := func(name string) string {
		for _, sh := range health.Snapshot() {
			if sh.Name == name {
				return sh.State
			}
		}
		return ""
	}
	// fire authorizes one instruction; allowed is false when it got no
	// decision at all.
	fire := func(op, device string) (allowed bool, err error) {
		in, err := registry.Build(op, device, instr.OriginUnknown, nil)
		if err != nil {
			return false, err
		}
		now = now.Add(5 * time.Second)
		callCtx, cancel := context.WithTimeout(ctx, time.Second)
		dec, err := framework.Authorize(callCtx, in)
		cancel()
		if err != nil {
			// A cancelled campaign is not a sensor outage; only the
			// per-call timeout (a hang fault) counts as no context.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return false, ctxErr
			}
			res.CollectErrors++
			return false, nil
		}
		if sourceState("optional") == string(core.SourceStale) {
			res.StaleServes++
		}
		if dec.Reason == core.ReasonMissing.String() {
			res.FailClosed++
		}
		if dec.Allowed && sourceState("required") == string(core.SourceMissing) {
			res.UnsafeAllows++
		}
		if dec.Allowed {
			if err := h.Execute(in); err != nil {
				return false, err
			}
		}
		return dec.Allowed, nil
	}

	for _, a := range campaignAttacks {
		in, err := registry.Build(a.Op, a.Device, instr.OriginUnknown, nil)
		if err != nil {
			return FaultScenarioResult{}, err
		}
		// The campaign measures the fail-closed contract, which covers
		// sensitive instructions only.
		if !detector.IsSensitive(in) {
			continue
		}
		attack, err := dataset.AttackScene(a.Model, rng)
		if err != nil {
			return FaultScenarioResult{}, err
		}
		h.Env().Apply(attack)
		allowed, err := fire(a.Op, a.Device)
		if err != nil {
			return FaultScenarioResult{}, err
		}
		res.Attack(!allowed)

		legal, err := dataset.LegalScene(a.Model, rng)
		if err != nil {
			return FaultScenarioResult{}, err
		}
		h.Env().Apply(legal)
		if allowed, err = fire(a.Op, a.Device); err != nil {
			return FaultScenarioResult{}, err
		}
		res.Legit(!allowed)
	}
	return res, nil
}

// RenderFaultCampaign formats the availability-versus-safety table of the
// fault campaign.
func (s *Suite) RenderFaultCampaign(ctx context.Context, rounds int) (string, error) {
	results, err := s.FaultCampaign(ctx, rounds)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fault campaign — %d rounds per scenario, sensitive instructions only\n", rounds)
	fmt.Fprintf(&b, "  %-20s %6s %7s %12s %7s %8s %7s\n",
		"scenario", "avail", "safety", "fail-closed", "stale", "no-ctx", "unsafe")
	for _, r := range results {
		fmt.Fprintf(&b, "  %-20s %5.1f%% %6.1f%% %12d %7d %8d %7d\n",
			r.Name, 100*r.Availability(), 100*r.Safety(),
			r.FailClosed, r.StaleServes, r.CollectErrors, r.UnsafeAllows)
	}
	return b.String(), nil
}

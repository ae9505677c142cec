package eval

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// AttackType names one attack class of the campaign.
type AttackType string

// The campaign's attack classes — one per evaluated device model, each
// staged from that model's attack-scene generator and delivered as the
// model's sensitive control instruction. Note tv_scare: TV control never
// crossed the questionnaire's 50 % high-threat bar (Table III), so the
// sensitive command detector waves it through untouched — the campaign
// keeps it to expose that scope boundary of the paper's design.
const (
	AttackWindowBurglary AttackType = "window_burglary"
	AttackAirconWaste    AttackType = "aircon_energy_waste"
	AttackLightCasing    AttackType = "light_casing"
	AttackCurtainPrivacy AttackType = "curtain_privacy"
	AttackTVScare        AttackType = "tv_scare"
	AttackCookerFire     AttackType = "cooker_fire_risk"
)

// campaignAttacks binds each attack type to its model and instruction.
var campaignAttacks = []struct {
	Type   AttackType
	Model  dataset.Model
	Op     string
	Device string
}{
	{AttackWindowBurglary, dataset.ModelWindow, "window.open", "window-1"},
	{AttackAirconWaste, dataset.ModelAircon, "aircon.set_cool", "aircon-1"},
	{AttackLightCasing, dataset.ModelLight, "light.on", "light-1"},
	{AttackCurtainPrivacy, dataset.ModelCurtain, "curtain.open", "curtain-1"},
	{AttackTVScare, dataset.ModelTV, "tv.on", "tv-1"},
	{AttackCookerFire, dataset.ModelKitchen, "cooker.start", "cooker-1"},
}

// CampaignResult is the outcome of a full attack campaign: per attack
// type, the staged attacks and their legitimate twins (the same
// instruction fired from a legal scene), plus the sum over all types.
type CampaignResult struct {
	PerType map[AttackType]Tally `json:"per_type"`
	Total   Tally                `json:"total"`
}

// roundOutcome records one campaign round's decisions, per attack index:
// the staged attack and the interleaved legitimate command. The full
// decisions are kept so collection paths can be compared bit-for-bit.
type roundOutcome struct {
	attack []core.Decision
	legit  []core.Decision
}

// collectMode builds one round's collector over its private home and
// returns an optional sync hook the round calls after every scene Apply —
// the push-mode bridge between staging a scene and deciding against it
// (nil for paths that read the environment directly).
type collectMode func(h *home.Home) (core.Collector, func() error, error)

// polledMode is the baseline: every Authorize polls the environment.
func polledMode(h *home.Home) (core.Collector, func() error, error) {
	return &core.SimCollector{Env: h.Env()}, nil, nil
}

// epochMode runs the campaign over the event-driven path: each round owns
// an epoch store clocked by its home's simulated time, and every staged
// scene is pushed into the store before the decision fires — the
// experiment's stand-in for the vendor event stream. The push budget is
// generous (an hour of sim time) because scene staging never advances the
// clock; staleness behaviour has its own tests, this mode measures
// decision equivalence.
func epochMode(h *home.Home) (core.Collector, func() error, error) {
	now := h.Env().Now
	store, err := epoch.NewStore(epoch.Config{Now: now},
		epoch.SourceConfig{Name: "sim", Required: true, FreshFor: time.Hour})
	if err != nil {
		return nil, nil, err
	}
	collector, err := core.NewEpochCollector(core.EpochCollectorConfig{Now: now}, store)
	if err != nil {
		return nil, nil, err
	}
	sync := func() error { return store.Push("sim", h.Env().Snapshot()) }
	return collector, sync, nil
}

// Campaign runs a mixed attack campaign against a live deployment: per
// round, every attack type stages its context in the home and fires its
// sensitive instruction through the IDS gate; interleaved, legitimate
// commands are issued from legal scenes. Uses the suite's trained memory.
//
// Each round is a self-contained unit of the shared fan-out — its own
// standard home, its own framework, and a scene generator seeded from the
// round index — so the tally is identical for every worker count.
//
// ctx bounds every Authorize call; the campaign aborts on the first
// judgment error.
func (s *Suite) Campaign(ctx context.Context, rounds int) (CampaignResult, error) {
	runs, err := s.runCampaign(ctx, rounds, polledMode)
	if err != nil {
		return CampaignResult{}, err
	}
	return tallyCampaign(runs[0]), nil
}

// CampaignComparison is the head-to-head outcome of the same seeded
// campaign run through the polled and the event-driven collection paths.
type CampaignComparison struct {
	Polled CampaignResult `json:"polled"`
	Epoch  CampaignResult `json:"epoch"`
	// Divergences counts decision slots where the paths disagreed; zero
	// means every decision — not just the tallies — matched bit-for-bit.
	Divergences int `json:"divergences"`
}

// CampaignCompare runs the same seeded campaign through both collection
// paths and compares the full decision streams element-wise. Round r of
// each path uses round r's seeds, so the scenes, instruction order and
// device state are identical; any divergence is the collection path's
// doing.
func (s *Suite) CampaignCompare(ctx context.Context, rounds int) (CampaignComparison, error) {
	runs, err := s.runCampaign(ctx, rounds, polledMode, epochMode)
	if err != nil {
		return CampaignComparison{}, err
	}
	polled, epochOut := runs[0], runs[1]
	cmp := CampaignComparison{Polled: tallyCampaign(polled), Epoch: tallyCampaign(epochOut)}
	for r := range polled {
		for i := range polled[r].attack {
			if polled[r].attack[i] != epochOut[r].attack[i] {
				cmp.Divergences++
			}
			if polled[r].legit[i] != epochOut[r].legit[i] {
				cmp.Divergences++
			}
		}
	}
	return cmp, nil
}

// runCampaign runs every round under every collection mode and returns
// the outcomes grouped by mode, in round order.
func (s *Suite) runCampaign(ctx context.Context, rounds int, modes ...collectMode) ([][]roundOutcome, error) {
	detector, err := core.DefaultDetector()
	if err != nil {
		return nil, err
	}
	registry := instr.BuiltinRegistry()
	return runUnits(ctx, s, len(modes), rounds, func(m, round int, _ int64) (roundOutcome, error) {
		return s.campaignRound(ctx, detector, registry, modes[m], round)
	})
}

// campaignRound runs one self-contained round under one collection mode.
func (s *Suite) campaignRound(ctx context.Context, detector *core.Detector, registry *instr.Registry,
	mode collectMode, round int) (roundOutcome, error) {
	h, err := home.NewStandard(home.EnvConfig{Seed: s.Config.Seed + 101})
	if err != nil {
		return roundOutcome{}, err
	}
	collector, sync, err := mode(h)
	if err != nil {
		return roundOutcome{}, err
	}
	framework, err := core.New(core.Config{
		Detector:  detector,
		Collector: collector,
		Memory:    s.Memory,
	})
	if err != nil {
		return roundOutcome{}, err
	}
	rng := rand.New(rand.NewSource(s.Config.Seed + 202 + int64(round)))
	fire := func(op, device string, scene sensor.Snapshot) (core.Decision, error) {
		h.Env().Apply(scene)
		if sync != nil {
			if err := sync(); err != nil {
				return core.Decision{}, err
			}
		}
		in, err := registry.Build(op, device, instr.OriginUnknown, nil)
		if err != nil {
			return core.Decision{}, err
		}
		dec, err := framework.Authorize(ctx, in)
		if err != nil {
			return core.Decision{}, err
		}
		if dec.Allowed {
			// The instruction executes — the attack (or legit command)
			// reaches the device.
			if err := h.Execute(in); err != nil {
				return core.Decision{}, err
			}
		}
		return dec, nil
	}

	out := roundOutcome{
		attack: make([]core.Decision, len(campaignAttacks)),
		legit:  make([]core.Decision, len(campaignAttacks)),
	}
	for i, a := range campaignAttacks {
		scene, err := dataset.AttackScene(a.Model, rng)
		if err != nil {
			return roundOutcome{}, err
		}
		if out.attack[i], err = fire(a.Op, a.Device, scene); err != nil {
			return roundOutcome{}, err
		}
		// A legitimate use of the same instruction, from a legal scene.
		if scene, err = dataset.LegalScene(a.Model, rng); err != nil {
			return roundOutcome{}, err
		}
		if out.legit[i], err = fire(a.Op, a.Device, scene); err != nil {
			return roundOutcome{}, err
		}
	}
	return out, nil
}

// tallyCampaign folds per-round outcomes into the campaign tally.
func tallyCampaign(outcomes []roundOutcome) CampaignResult {
	res := CampaignResult{PerType: make(map[AttackType]Tally, len(campaignAttacks))}
	for _, out := range outcomes {
		for i, a := range campaignAttacks {
			c := res.PerType[a.Type]
			c.Attack(!out.attack[i].Allowed)
			c.Legit(!out.legit[i].Allowed)
			res.PerType[a.Type] = c
		}
	}
	for _, c := range res.PerType {
		res.Total.Add(c)
	}
	return res
}

// attackTypes returns the campaign's attack types in name order.
func attackTypes() []string {
	types := make([]string, len(campaignAttacks))
	for i, a := range campaignAttacks {
		types[i] = string(a.Type)
	}
	sort.Strings(types)
	return types
}

// RenderCampaign formats the campaign outcome.
func (s *Suite) RenderCampaign(ctx context.Context, rounds int) (string, error) {
	r, err := s.Campaign(ctx, rounds)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Attack campaign — %d rounds across six attack classes\n", rounds)
	for _, t := range attackTypes() {
		c := r.PerType[AttackType(t)]
		fmt.Fprintf(&b, "  %-24s blocked %3d/%3d (%.0f%%), false blocks %d/%d\n", t, c.AttackBlocked, c.AttackAttempts,
			100*c.Safety(), c.LegitBlocked, c.LegitAttempts)
	}
	fmt.Fprintf(&b, "  overall interception %.1f%%, legitimate commands wrongly blocked %.1f%%\n",
		100*r.Total.Safety(), 100*(1-r.Total.Availability()))
	return b.String(), nil
}

// RenderCampaignCompare formats the comparison.
func (s *Suite) RenderCampaignCompare(ctx context.Context, rounds int) (string, error) {
	cmp, err := s.CampaignCompare(ctx, rounds)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Collection-path comparison — %d rounds, polled vs. event-driven\n", rounds)
	fmt.Fprintf(&b, "  polled: interception %.1f%%, false blocks %.1f%%\n",
		100*cmp.Polled.Total.Safety(), 100*(1-cmp.Polled.Total.Availability()))
	fmt.Fprintf(&b, "  epoch:  interception %.1f%%, false blocks %.1f%%\n",
		100*cmp.Epoch.Total.Safety(), 100*(1-cmp.Epoch.Total.Availability()))
	fmt.Fprintf(&b, "  per scenario (blocked; false blocks — polled | epoch):\n")
	for _, t := range attackTypes() {
		p, e := cmp.Polled.PerType[AttackType(t)], cmp.Epoch.PerType[AttackType(t)]
		fmt.Fprintf(&b, "    %-24s %3d/%3d; %d/%d | %3d/%3d; %d/%d\n", t,
			p.AttackBlocked, p.AttackAttempts, p.LegitBlocked, p.LegitAttempts,
			e.AttackBlocked, e.AttackAttempts, e.LegitBlocked, e.LegitAttempts)
	}
	if cmp.Divergences == 0 {
		fmt.Fprintf(&b, "  decision streams identical (every decision bit-for-bit equal)\n")
	} else {
		fmt.Fprintf(&b, "  DIVERGED: %d decision slots differ\n", cmp.Divergences)
	}
	return b.String(), nil
}

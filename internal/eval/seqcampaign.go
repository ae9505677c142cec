package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"iotsid/internal/automation"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
)

// SeqScenario names one temporal-attack scenario of the sequence campaign.
// Unlike the static campaign's attack classes, every scene staged here is
// individually tree-legal — the attack lives entirely in the ordering and
// timing of the instruction stream, which only the sequence judge can see.
type SeqScenario string

const (
	// SeqScenarioClean is the control: a coherent benign day, no attack.
	// Both judges must keep it fully available.
	SeqScenarioClean SeqScenario = "clean"
	// SeqScenarioAutomationChain triggers a rule cascade — three status
	// reads and a sensitive action fired from one snapshot, all sharing a
	// single timestamp. Each scene passes the tree's voice-legal branch;
	// the same-tick burst is the signature.
	SeqScenarioAutomationChain SeqScenario = "automation_chain"
	// SeqScenarioStaleReplay re-fires a captured voice-legal scene whose
	// hour bucket no benign day ever jumps to. The tree sees a legal hour;
	// the sequence judge sees an impossible transition.
	SeqScenarioStaleReplay SeqScenario = "stale_replay"
)

// seqScenarios fixes the campaign order (and therefore the digest).
var seqScenarios = []SeqScenario{SeqScenarioClean, SeqScenarioAutomationChain, SeqScenarioStaleReplay}

// SeqScenarioResult is one scenario's side-by-side outcome: the static tree
// alone versus the tree combined fail-closed with the sequence judge.
type SeqScenarioResult struct {
	Scenario SeqScenario `json:"scenario"`
	Tree     Tally       `json:"tree"`
	Combined Tally       `json:"combined"`
}

// SeqCampaignResult is the full campaign outcome.
type SeqCampaignResult struct {
	Rounds    int                 `json:"rounds"`
	Scenarios []SeqScenarioResult `json:"scenarios"`
	// UnsafeAllows counts staged attacks the combined judge let through —
	// the campaign's safety criterion is zero.
	UnsafeAllows int `json:"unsafe_allows"`
	// Digest folds every decision (both judges, every scenario, every
	// round) through FNV-64 in unit order — bit-identical at any worker
	// count, so two runs can be compared without shipping the streams.
	Digest string `json:"digest"`
}

// seqFold folds one decision into a unit digest: the allow bit, then the
// reason bytes.
func seqFold(d uint64, allowed bool, reason string) uint64 {
	var bit uint64
	if allowed {
		bit = 1
	}
	d = fnvFold(d, bit)
	for i := 0; i < len(reason); i++ {
		d = fnvFold(d, uint64(reason[i]))
	}
	return d
}

// seqUnitOutcome is one (scenario, round) unit's tally per judge.
type seqUnitOutcome struct {
	tree     Tally
	combined Tally
	digest   uint64
}

// SeqCampaign runs the temporal-attack campaign: per (scenario, round)
// unit, two frameworks — the static tree alone and the tree combined with
// the sequence judge — are driven with bit-identical instruction streams:
// a benign warm-up day, then the scenario's attack. Units fan out over
// s.Config.Workers; every unit is fully self-contained and seeded from its
// index before the fan-out, so the tallies and the digest are identical
// for every worker count. The shared sequence table is trained once, up
// front, from the same deterministic generator the judge ships with.
func (s *Suite) SeqCampaign(ctx context.Context, rounds int) (SeqCampaignResult, error) {
	detector, err := core.DefaultDetector()
	if err != nil {
		return SeqCampaignResult{}, err
	}
	set, err := seq.Train(seq.TrainConfig{Seed: s.Config.Seed + 7, Models: []dataset.Model{dataset.ModelWindow}})
	if err != nil {
		return SeqCampaignResult{}, err
	}
	registry := instr.BuiltinRegistry()
	units, err := runUnits(ctx, s, len(seqScenarios), rounds, func(sc, _ int, u int64) (seqUnitOutcome, error) {
		return s.seqRound(seqScenarios[sc], detector, set, registry,
			rand.New(rand.NewSource(s.Config.Seed+515+9973*u)))
	})
	if err != nil {
		return SeqCampaignResult{}, err
	}

	res := SeqCampaignResult{Rounds: rounds, Scenarios: make([]SeqScenarioResult, len(seqScenarios))}
	digest := fnvOffset
	for i, rows := range units {
		row := &res.Scenarios[i]
		row.Scenario = seqScenarios[i]
		for _, o := range rows {
			row.Tree.Add(o.tree)
			row.Combined.Add(o.combined)
			digest = fnvChain(digest, o.digest)
		}
		res.UnsafeAllows += row.Combined.AttackAttempts - row.Combined.AttackBlocked
	}
	res.Digest = fmt.Sprintf("%016x", digest)
	return res, nil
}

// seqRound runs one self-contained (scenario, round) unit and returns its
// tally. Both frameworks see the exact same scenes in the exact same
// order; the only difference between them is the armed sequence judge.
func (s *Suite) seqRound(scenario SeqScenario, detector *core.Detector, set *seq.Set,
	registry *instr.Registry, rng *rand.Rand) (seqUnitOutcome, error) {
	nullCollector := core.CollectorFunc(func(context.Context) (sensor.Snapshot, error) {
		return sensor.Snapshot{}, nil
	})
	treeFW, err := core.New(core.Config{Detector: detector, Collector: nullCollector, Memory: s.Memory})
	if err != nil {
		return seqUnitOutcome{}, err
	}
	seqFW, err := core.New(core.Config{Detector: detector, Collector: nullCollector, Memory: s.Memory, Sequence: set})
	if err != nil {
		return seqUnitOutcome{}, err
	}

	out := seqUnitOutcome{digest: fnvOffset}
	// judgeBoth fires the same instruction+scene through both frameworks
	// and tallies it as benign traffic or as a staged attack.
	judgeBoth := func(op string, e seq.TraceEvent, attack bool) error {
		in, err := registry.Build(op, "window-1", instr.OriginUnknown, nil)
		if err != nil {
			return err
		}
		scene := e.WindowScene()
		for i, fw := range [2]*core.Framework{treeFW, seqFW} {
			dec, err := fw.Judge(in, scene)
			if err != nil {
				return err
			}
			counts := &out.tree
			if i == 1 {
				counts = &out.combined
			}
			if attack {
				counts.Attack(!dec.Allowed)
			} else {
				counts.Legit(!dec.Allowed)
			}
			out.digest = seqFold(out.digest, dec.Allowed, dec.Reason)
		}
		return nil
	}

	// Warm-up: a coherent benign day (daytime hours, so the tree's
	// voice-legal branch holds throughout). The clean control simply runs
	// a longer one.
	warmN := 14
	if scenario == SeqScenarioClean {
		warmN = 20
	}
	trace := seq.LegalTrace(rng, warmN, 8, 13)
	for _, e := range trace {
		op := "window.get_state"
		if e.Sensitive {
			op = "window.open"
		}
		if err := judgeBoth(op, e, false); err != nil {
			return seqUnitOutcome{}, err
		}
	}
	last := trace[len(trace)-1]

	switch scenario {
	case SeqScenarioClean:
		// Control: no attack.
	case SeqScenarioAutomationChain:
		if err := out.runChain(treeFW, seqFW, registry, last); err != nil {
			return seqUnitOutcome{}, err
		}
	case SeqScenarioStaleReplay:
		// The captured scene re-fires with its stale hour; three attempts,
		// 90 s apart. A rejected event never enters the history, so the
		// replay stays anomalous on every retry.
		replay := seq.TraceEvent{
			At:        last.At.Add(90 * time.Second),
			Hour:      seq.ReplayHour(last.Hour),
			Voice:     true,
			Occupied:  last.Occupied,
			Sensitive: true,
		}
		for attempt := 0; attempt < 3; attempt++ {
			if err := judgeBoth("window.open", replay, true); err != nil {
				return seqUnitOutcome{}, err
			}
			replay.At = replay.At.Add(90 * time.Second)
		}
	default:
		return seqUnitOutcome{}, fmt.Errorf("eval: unknown sequence scenario %q", scenario)
	}
	return out, nil
}

// runChain stages the automation-chain attack through the real rule
// engine: one trigger snapshot fires three status reads and then the
// sensitive action, every dispatch gated by the framework's interceptor —
// so all four instructions reach the judge with one shared timestamp, the
// way a compromised rule pack would deliver them.
func (o *seqUnitOutcome) runChain(treeFW, seqFW *core.Framework, registry *instr.Registry, last seq.TraceEvent) error {
	burst := seq.TraceEvent{At: last.At.Add(40 * time.Second), Hour: last.Hour, Voice: true, Occupied: last.Occupied}
	snap := burst.WindowScene()
	for i, fw := range [2]*core.Framework{treeFW, seqFW} {
		engine := automation.NewEngine(registry, nil)
		engine.SetInterceptor(automation.Interceptor(fw.Interceptor()))
		for r := 1; r <= 3; r++ {
			if err := engine.AddRuleText(fmt.Sprintf("chain status %d", r),
				`WHEN voice_command == TRUE THEN window.get_state @ window-1`); err != nil {
				return err
			}
		}
		if err := engine.AddRuleText("chain open",
			`WHEN voice_command == TRUE THEN window.open @ window-1`); err != nil {
			return err
		}
		events := engine.Evaluate(snap)
		counts := &o.tree
		if i == 1 {
			counts = &o.combined
		}
		for _, ev := range events {
			if ev.Err != "" {
				return fmt.Errorf("eval: chain rule %q: %s", ev.Rule, ev.Err)
			}
			if ev.Op == "window.open" {
				counts.Attack(!ev.Allowed)
			} else {
				// The status fillers are part of the attack delivery, but a
				// judge that rejects them is paying availability for it.
				counts.Legit(!ev.Allowed)
			}
			o.digest = seqFold(o.digest, ev.Allowed, ev.Reason)
		}
	}
	return nil
}

// RenderSeqCampaign formats the side-by-side table.
func (s *Suite) RenderSeqCampaign(ctx context.Context, rounds int) (string, error) {
	r, err := s.SeqCampaign(ctx, rounds)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Sequence campaign — %d rounds per scenario, static tree vs. tree+sequence\n", r.Rounds)
	fmt.Fprintf(&b, "  %-18s %-9s %15s %14s %8s\n", "scenario", "judge", "attacks blocked", "false blocks", "avail")
	for _, row := range r.Scenarios {
		fmt.Fprintf(&b, "  %-18s %-9s %9d/%3d %10d/%3d %7.1f%%\n", row.Scenario, "tree",
			row.Tree.AttackBlocked, row.Tree.AttackAttempts,
			row.Tree.LegitBlocked, row.Tree.LegitAttempts, 100*row.Tree.Availability())
		fmt.Fprintf(&b, "  %-18s %-9s %9d/%3d %10d/%3d %7.1f%%\n", "", "tree+seq",
			row.Combined.AttackBlocked, row.Combined.AttackAttempts,
			row.Combined.LegitBlocked, row.Combined.LegitAttempts, 100*row.Combined.Availability())
	}
	fmt.Fprintf(&b, "  combined-judge unsafe allows: %d\n", r.UnsafeAllows)
	fmt.Fprintf(&b, "  decision digest %s (identical at any worker count)\n", r.Digest)
	return b.String(), nil
}

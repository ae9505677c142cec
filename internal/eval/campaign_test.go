package eval

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// campaignRun erases a campaign entry point's result type so the five
// campaigns fit one table.
type campaignRun func(s *Suite, ctx context.Context, rounds int) (any, error)

func erase[T any](f func(*Suite, context.Context, int) (T, error)) campaignRun {
	return func(s *Suite, ctx context.Context, rounds int) (any, error) { return f(s, ctx, rounds) }
}

// campaigns lists every campaign with the round count its determinism
// check runs at.
var campaigns = []struct {
	name   string
	rounds int
	run    campaignRun
}{
	{"attack", 12, erase((*Suite).Campaign)},
	{"compare", 8, erase((*Suite).CampaignCompare)},
	{"fault", 3, erase((*Suite).FaultCampaign)},
	{"spoof", 2, erase((*Suite).SpoofCampaign)},
	{"seq", 2, erase((*Suite).SeqCampaign)},
}

// TestCampaignArguments: every campaign rejects a non-positive round count
// and reports a cancelled ctx as context.Canceled rather than as a result.
func TestCampaignArguments(t *testing.T) {
	s := suiteForTest(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range campaigns {
		t.Run(c.name, func(t *testing.T) {
			for _, rounds := range []int{0, -1} {
				if _, err := c.run(s, context.Background(), rounds); err == nil {
					t.Errorf("rounds %d accepted", rounds)
				}
			}
			if out, err := c.run(s, cancelled, 1); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled ctx: err = %v, want context.Canceled; result %+v", err, out)
			}
		})
	}
	// The harness refuses to start a unit under a cancelled ctx, which
	// would mask a unit that swallows the cancellation — drive one fault
	// unit directly: its collect failures must surface as the ctx error,
	// not as a sensor outage.
	t.Run("fault_round", func(t *testing.T) {
		res, err := s.faultRound(cancelled, DefaultFaultScenarios()[0], 0)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled; result %+v", err, res)
		}
	})
}

// TestCampaignDeterminism: every campaign unit is seeded from its index
// before the fan-out and merged in unit order, so each campaign's full
// result — tallies, decision divergences, trust and decision digests — is
// identical at Workers 1 and 8.
func TestCampaignDeterminism(t *testing.T) {
	s := suiteForTest(t)
	serial, parallel := *s, *s
	serial.Config.Workers, parallel.Config.Workers = 1, 8
	for _, c := range campaigns {
		t.Run(c.name, func(t *testing.T) {
			a, err := c.run(&serial, context.Background(), c.rounds)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.run(&parallel, context.Background(), c.rounds)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("diverges across worker counts:\nserial:   %+v\nparallel: %+v", a, b)
			}
		})
	}
}

// update rewrites the campaign golden file from the current renderers:
//
//	go test ./internal/eval/ -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/campaigns.golden")

// TestCampaignTablesGolden renders the five campaign tables at the round
// counts EXPERIMENTS.md reports and requires byte equality with the
// committed golden file — every tally, rate and digest is pinned.
func TestCampaignTablesGolden(t *testing.T) {
	s := suiteForTest(t)
	renders := []struct {
		rounds int
		render func(context.Context, int) (string, error)
	}{
		{60, s.RenderCampaign},
		{8, s.RenderCampaignCompare},
		{4, s.RenderFaultCampaign},
		{5, s.RenderSpoofCampaign},
		{5, s.RenderSeqCampaign},
	}
	var tables []string
	for _, r := range renders {
		out, err := r.render(context.Background(), r.rounds)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, out)
	}
	got := []byte(strings.Join(tables, "\n"))

	path := filepath.Join("testdata", "campaigns.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("campaign tables drifted from %s:\n%s", path, got)
	}
}

func TestCampaign(t *testing.T) {
	s := suiteForTest(t)
	r, err := s.Campaign(context.Background(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerType) != 6 {
		t.Fatalf("attack types = %d", len(r.PerType))
	}
	for typ, c := range r.PerType {
		if c.AttackAttempts != 40 {
			t.Errorf("%s attempts = %d", typ, c.AttackAttempts)
		}
		if typ == AttackTVScare {
			// TV control is below the Table III sensitivity bar: the
			// detector never escalates it, so nothing is blocked — the
			// campaign documents that scope boundary.
			if c.Safety() != 0 {
				t.Errorf("tv_scare block rate = %v, want 0 (outside detector scope)", c.Safety())
			}
			continue
		}
		if c.Safety() < 0.7 {
			t.Errorf("%s block rate = %v", typ, c.Safety())
		}
	}
	if r.Total.Safety() < 0.7 {
		t.Errorf("overall block rate = %v", r.Total.Safety())
	}
	if r.Total.Availability() < 0.85 {
		t.Errorf("false block rate = %v", 1-r.Total.Availability())
	}
	if _, err := s.RenderCampaign(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
}

// TestEpochCampaignMatchesPolled is the collection-path equivalence gate:
// the same seeded campaign produces bit-identical decisions whether the
// framework polls the environment or reads the epoch store.
func TestEpochCampaignMatchesPolled(t *testing.T) {
	s := suiteForTest(t)
	cmp, err := s.CampaignCompare(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Divergences != 0 {
		t.Fatalf("decision streams diverge: divergences=%d\npolled: %+v\nepoch:  %+v",
			cmp.Divergences, cmp.Polled, cmp.Epoch)
	}
	if !reflect.DeepEqual(cmp.Polled, cmp.Epoch) {
		t.Fatalf("tallies diverge:\npolled: %+v\nepoch:  %+v", cmp.Polled, cmp.Epoch)
	}
	// The campaign must actually have decided things.
	if cmp.Epoch.Total.LegitAttempts == 0 || len(cmp.Epoch.PerType) != 6 {
		t.Fatalf("empty campaign: %+v", cmp.Epoch)
	}
}

// TestFaultCampaignContract asserts the two headline properties of the
// resilience work: a flapping optional source does not take availability to
// zero (bounded staleness absorbs it), and a dead required source rejects
// every sensitive instruction (fail-closed), with zero unsafe allows
// anywhere in the campaign.
func TestFaultCampaignContract(t *testing.T) {
	s := suiteForTest(t)
	rows, err := s.FaultCampaign(context.Background(), 4)
	if err != nil {
		t.Fatalf("FaultCampaign: %v", err)
	}
	results := make(map[string]FaultScenarioResult, len(rows))
	for _, r := range rows {
		results[r.Name] = r
	}

	// Baseline: the harness itself is sound — everything is served and no
	// command errors out.
	base, ok := results["baseline"]
	if !ok {
		t.Fatal("baseline scenario missing")
	}
	if base.CollectErrors != 0 || base.FailClosed != 0 || base.StaleServes != 0 {
		t.Errorf("baseline not clean: %+v", base)
	}
	if base.Availability() == 0 {
		t.Error("baseline availability zero")
	}
	if base.Safety() == 0 {
		t.Error("baseline safety zero")
	}

	// Flapping optional source: availability survives, no fail-closed (the
	// required feed keeps answering), and the staleness fallback was
	// actually exercised.
	flaky := results["flaky_optional"]
	if flaky.Availability() == 0 {
		t.Errorf("flaky optional source took availability to zero: %+v", flaky)
	}
	if flaky.StaleServes == 0 {
		t.Errorf("staleness fallback never exercised: %+v", flaky)
	}
	if flaky.FailClosed != 0 {
		t.Errorf("healthy required source but fail-closed decisions: %+v", flaky)
	}
	// A flapping *optional* source must not change safety relative to the
	// baseline regime: the fresh required feed wins every merge.
	if flaky.Safety() < base.Safety() {
		t.Errorf("flaky optional source degraded safety: %.2f < %.2f", flaky.Safety(), base.Safety())
	}

	// Optional blackout: the fresh → stale → missing ladder is walked.
	blackout := results["optional_blackout"]
	if blackout.StaleServes == 0 {
		t.Errorf("blackout never served stale: %+v", blackout)
	}
	if blackout.Availability() == 0 {
		t.Errorf("optional blackout took availability to zero: %+v", blackout)
	}

	// Required source down: every sensitive instruction rejected — attacks
	// and legitimate alike — via explicit fail-closed decisions.
	down := results["required_down"]
	if down.AttackBlocked != down.AttackAttempts {
		t.Errorf("required down: %d/%d attacks blocked, want all", down.AttackBlocked, down.AttackAttempts)
	}
	if served := down.LegitAttempts - down.LegitBlocked; served != 0 {
		t.Errorf("required down: %d sensitive commands served blind", served)
	}
	if down.FailClosed == 0 {
		t.Errorf("required down produced no fail-closed decisions: %+v", down)
	}

	// The fail-closed contract holds campaign-wide: no sensitive
	// instruction was ever allowed while the required source was missing.
	for name, r := range results {
		if r.UnsafeAllows != 0 {
			t.Errorf("scenario %s: %d unsafe allows, want 0", name, r.UnsafeAllows)
		}
		if r.AttackAttempts == 0 || r.LegitAttempts == 0 {
			t.Errorf("scenario %s fired no sensitive instructions: %+v", name, r)
		}
	}
}

// TestSpoofCampaign is the spoofing-campaign contract: every attack
// family is fully blocked in the firing phase (zero unsafe allows, all
// of it explicit fail-closed), the trust engine records the violations
// that did it, and honest traffic — the clean control and every
// scenario's pre-attack phase — stays fully available.
func TestSpoofCampaign(t *testing.T) {
	s := suiteForTest(t)
	results, err := s.SpoofCampaign(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(DefaultSpoofScenarios()) {
		t.Fatalf("got %d scenario rows, want %d", len(results), len(DefaultSpoofScenarios()))
	}
	for _, r := range results {
		if r.UnsafeAllows != 0 {
			t.Errorf("%s: %d unsafe allows, want 0", r.Name, r.UnsafeAllows)
		}
		if r.Availability() != 1 {
			t.Errorf("%s: availability %.3f, want 1.0 on honest traffic", r.Name, r.Availability())
		}
		if r.Name == "clean" {
			if r.TrustViolations != 0 {
				t.Errorf("clean: %d trust violations, want 0", r.TrustViolations)
			}
			if r.MinFinalScore != 1 {
				t.Errorf("clean: min final score %.3f, want 1", r.MinFinalScore)
			}
			if r.AttackAttempts != 0 {
				t.Errorf("clean: %d spoof attempts, want 0", r.AttackAttempts)
			}
			continue
		}
		if r.AttackAttempts == 0 || r.AttackBlocked != r.AttackAttempts {
			t.Errorf("%s: blocked %d of %d spoofed attempts, want all", r.Name, r.AttackBlocked, r.AttackAttempts)
		}
		if r.FailClosed != r.AttackAttempts {
			t.Errorf("%s: %d fail-closed of %d spoofed attempts — attacks must be stopped by the trust gate, not tree judgment", r.Name, r.FailClosed, r.AttackAttempts)
		}
		if r.TrustViolations == 0 {
			t.Errorf("%s: no trust violations recorded", r.Name)
		}
		if r.MinFinalScore >= 0.5 {
			t.Errorf("%s: min final score %.3f, want collapsed below threshold", r.Name, r.MinFinalScore)
		}
	}
}

// TestSeqCampaign is the sequence-campaign contract: the static tree alone
// allows every temporal attack (each staged scene is tree-legal — that is
// the blind spot the axis exists for), the combined judge blocks them all
// with zero unsafe allows, and benign traffic — the clean control and
// every scenario's warm-up day — stays fully available under both judges.
func TestSeqCampaign(t *testing.T) {
	s := suiteForTest(t)
	r, err := s.SeqCampaign(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != len(seqScenarios) {
		t.Fatalf("got %d scenario rows, want %d", len(r.Scenarios), len(seqScenarios))
	}
	if r.UnsafeAllows != 0 {
		t.Errorf("combined judge let %d attacks through, want 0", r.UnsafeAllows)
	}
	for _, row := range r.Scenarios {
		if row.Tree.Availability() != 1 || row.Combined.Availability() != 1 {
			t.Errorf("%s: availability tree %.3f / combined %.3f, want 1.0 on benign traffic",
				row.Scenario, row.Tree.Availability(), row.Combined.Availability())
		}
		if row.Scenario == SeqScenarioClean {
			if row.Tree.AttackAttempts != 0 || row.Combined.AttackAttempts != 0 {
				t.Errorf("clean control staged %d/%d attacks, want none",
					row.Tree.AttackAttempts, row.Combined.AttackAttempts)
			}
			continue
		}
		if row.Tree.AttackAttempts == 0 {
			t.Errorf("%s: no attacks staged", row.Scenario)
		}
		if row.Tree.AttackBlocked != 0 {
			t.Errorf("%s: tree alone blocked %d/%d — the scenario must be tree-legal",
				row.Scenario, row.Tree.AttackBlocked, row.Tree.AttackAttempts)
		}
		if row.Combined.AttackBlocked != row.Combined.AttackAttempts {
			t.Errorf("%s: combined judge blocked %d/%d, want all",
				row.Scenario, row.Combined.AttackBlocked, row.Combined.AttackAttempts)
		}
	}
}

func TestRenderCampaignCompare(t *testing.T) {
	s := suiteForTest(t)
	out, err := s.RenderCampaignCompare(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "identical") {
		t.Errorf("rendered comparison does not report identity:\n%s", out)
	}
	if !strings.Contains(out, "polled") || !strings.Contains(out, "epoch") {
		t.Errorf("rendered comparison missing path rows:\n%s", out)
	}
}

func TestRenderFaultCampaign(t *testing.T) {
	s := suiteForTest(t)
	out, err := s.RenderFaultCampaign(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range DefaultFaultScenarios() {
		if !strings.Contains(out, sc.Name) {
			t.Errorf("render missing scenario %s:\n%s", sc.Name, out)
		}
	}
	if !strings.Contains(out, "avail") || !strings.Contains(out, "safety") {
		t.Errorf("render missing headers:\n%s", out)
	}
}

func TestRenderSpoofCampaign(t *testing.T) {
	s := suiteForTest(t)
	out, err := s.RenderSpoofCampaign(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario", "avail", "safety", "unsafe", "digest",
		"clean", "replay", "slow_drift", "stuck_at", "spike"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSeqCampaign(t *testing.T) {
	s := suiteForTest(t)
	out, err := s.RenderSeqCampaign(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario", "judge", "attacks blocked", "avail", "digest",
		"clean", "automation_chain", "stale_replay", "tree+seq", "unsafe allows: 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

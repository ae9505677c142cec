package fleet

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
)

// equivStep is one command of the cross-pipeline stream: the context both
// pipelines see and the instruction they judge against it.
type equivStep struct {
	snap sensor.Snapshot
	in   instr.Instruction
}

// equivStream builds a seeded stream holding legal scenes, attack scenes
// across models, non-sensitive ops and a same-tick chain. Event times never
// run backwards, so every fleet push is accepted.
func equivStream(t *testing.T, seed int64) []equivStep {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []equivStep
	add := func(snap sensor.Snapshot, op, dev string) {
		out = append(out, equivStep{snap: snap, in: buildInstr(t, op, dev)})
	}
	trace := seq.LegalTrace(rng, 24, 8, 13)
	attackOps := map[dataset.Model][2]string{
		dataset.ModelWindow:  {"window.open", "window-1"},
		dataset.ModelAircon:  {"aircon.on", "ac-1"},
		dataset.ModelCurtain: {"curtain.open", "curtain-1"},
		dataset.ModelLight:   {"light.on", "lamp-1"},
	}
	models := []dataset.Model{dataset.ModelWindow, dataset.ModelAircon, dataset.ModelCurtain, dataset.ModelLight}
	for i, e := range trace {
		op := "window.get_state"
		if e.Sensitive {
			op = "window.open"
		}
		add(e.WindowScene(), op, "window-1")
		if i%4 == 3 {
			m := models[rng.Intn(len(models))]
			snap, err := dataset.AttackScene(m, rng)
			if err != nil {
				t.Fatal(err)
			}
			snap.At = e.At
			add(snap, attackOps[m][0], attackOps[m][1])
			add(snap, "light.get_state", "lamp-1")
		}
	}
	last := trace[len(trace)-1]
	burst := seq.TraceEvent{At: last.At.Add(40 * time.Second), Hour: last.Hour, Voice: true, Occupied: last.Occupied}
	for i := 0; i < 3; i++ {
		add(burst.WindowScene(), "window.get_state", "window-1")
	}
	add(burst.WindowScene(), "window.open", "window-1")
	return out
}

// TestFrameworkFleetEquivalence runs one seeded stream through a
// core.Framework on a fixed collector and through a one-home fleet (push,
// then authorize), both armed with the same sequence set: the decision
// streams must be identical, field for field.
func TestFrameworkFleetEquivalence(t *testing.T) {
	set := seqSetForTest(t)
	var cur sensor.Snapshot
	fw, err := core.New(core.Config{
		Detector:  detectorForTest(t),
		Collector: core.CollectorFunc(func(context.Context) (sensor.Snapshot, error) { return cur, nil }),
		Memory:    memoryForTest(t),
		Sequence:  set,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl := fleetForTest(t, Config{})
	mustAddHome(t, fl, HomeConfig{ID: "h", Sequence: set})
	ctx := context.Background()

	var allowed, rejected, anomalies int
	var last core.Decision
	for i, st := range equivStream(t, 4101) {
		cur = st.snap
		a, err := fw.Authorize(ctx, st.in)
		if err != nil {
			t.Fatal(err)
		}
		if err := fl.PushContext("h", st.snap); err != nil {
			t.Fatal(err)
		}
		b, err := fl.Authorize(ctx, "h", st.in)
		if err != nil {
			t.Fatal(err)
		}
		if a.Allowed != b.Allowed || a.Sensitive != b.Sensitive || a.Model != b.Model || a.Reason != b.Reason {
			t.Fatalf("step %d (%s): framework %+v, fleet %+v", i, st.in.Op, a, b)
		}
		switch {
		case a.Allowed:
			allowed++
		case a.Reason == core.ReasonSeqAnomaly.String():
			anomalies++
		default:
			rejected++
		}
		last = a
	}
	// The stream must exercise every path the test claims to compare:
	// allows, tree rejections, and sequence revocations ending with the
	// chain's sensitive tail.
	if allowed == 0 || rejected == 0 || last.Reason != core.ReasonSeqAnomaly.String() {
		t.Fatalf("stream too narrow: %d allowed, %d tree rejections, chain tail %+v", allowed, rejected, last)
	}
	if want := uint64(anomalies); fw.SeqAnomalies() != want || fl.SeqAnomalies() != want {
		t.Fatalf("SeqAnomalies: framework %d, fleet %d, want %d", fw.SeqAnomalies(), fl.SeqAnomalies(), want)
	}
}

// lowTrustCollector serves a scene whose one required source is fresh but
// below its trust threshold.
type lowTrustCollector struct{ snap sensor.Snapshot }

func (c lowTrustCollector) Collect(context.Context) (sensor.Snapshot, error) { return c.snap, nil }

func (c lowTrustCollector) CollectDetailed(context.Context) (sensor.Snapshot, core.Provenance, error) {
	return c.snap, core.Provenance{{Name: "push", Required: true, State: core.SourceFresh, LowTrust: true}}, nil
}

// TestLowTrustReasonShared: both pipelines fail a sensitive instruction
// closed on low-trust context with the one interned reason.
func TestLowTrustReasonShared(t *testing.T) {
	legal := legalCtx(t, dataset.ModelWindow)
	open := buildInstr(t, "window.open", "window-1")
	fw, err := core.New(core.Config{Detector: detectorForTest(t), Collector: lowTrustCollector{legal}, Memory: memoryForTest(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := fw.Authorize(context.Background(), open)
	if err != nil {
		t.Fatal(err)
	}

	fl := fleetForTest(t, Config{})
	h := mustAddHome(t, fl, HomeConfig{ID: "h", Trust: trustEngine(t)})
	for i := 1; i <= 2; i++ {
		if err := fl.PushContext("h", corruptCtx(t, legal.At.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	if !h.LowTrust() {
		t.Fatal("corrupt pushes left the home trusted")
	}
	b, err := fl.Authorize(context.Background(), "h", open)
	if err != nil {
		t.Fatal(err)
	}
	want := core.ReasonLowTrust.String()
	if a.Allowed || b.Allowed || a.Reason != want || b.Reason != want {
		t.Fatalf("framework %+v, fleet %+v; want both rejected with %q", a, b, want)
	}
}

package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// trainedMemory caches one trained memory across the test binary (training
// all six models takes a moment).
var trainedMemory *FeatureMemory

func memoryForTest(t *testing.T) *FeatureMemory {
	t.Helper()
	if trainedMemory != nil {
		return trainedMemory
	}
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := Train(corpus, dataset.BuildConfig{Seed: 42}, TrainConfig{Seed: 9})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	trainedMemory = fm
	return fm
}

func detectorForTest(t *testing.T) *Detector {
	t.Helper()
	d, err := DefaultDetector()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func buildInstr(t *testing.T, op, device string) instr.Instruction {
	t.Helper()
	in, err := instr.BuiltinRegistry().Build(op, device, instr.OriginUser, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func legalCtx(t *testing.T, m dataset.Model) sensor.Snapshot {
	t.Helper()
	snap, err := dataset.LegalScene(m, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func attackCtx(t *testing.T, m dataset.Model) sensor.Snapshot {
	t.Helper()
	snap, err := dataset.AttackScene(m, rand.New(rand.NewSource(78)))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestDefaultDetectorMatchesTableIII(t *testing.T) {
	d := detectorForTest(t)
	want := map[instr.Category]bool{
		instr.CatAlarm: true, instr.CatKitchen: true, instr.CatAirConditioning: true,
		instr.CatCurtain: true, instr.CatLighting: true, instr.CatWindowDoorLock: true,
		instr.CatCamera: true,
	}
	got := d.SensitiveCategories()
	if len(got) != len(want) {
		t.Fatalf("sensitive categories = %v", got)
	}
	for _, c := range got {
		if !want[c] {
			t.Errorf("unexpected sensitive category %v", c)
		}
	}
	// Control instructions in sensitive categories are sensitive...
	if !d.IsSensitive(buildInstr(t, "window.open", "window-1")) {
		t.Error("window.open must be sensitive")
	}
	// ...status instructions never are (Fig 4)...
	if d.IsSensitive(buildInstr(t, "window.get_state", "window-1")) {
		t.Error("status instructions must not be sensitive")
	}
	// ...and TV / vacuum control stays below the 50 % bar (Table III).
	if d.IsSensitive(buildInstr(t, "tv.on", "tv-1")) {
		t.Error("tv.on must not be sensitive")
	}
	if d.IsSensitive(buildInstr(t, "vacuum.start", "vacuum-1")) {
		t.Error("vacuum.start must not be sensitive")
	}
}

func TestTrainProducesTableVIBandReports(t *testing.T) {
	fm := memoryForTest(t)
	models := fm.Models()
	if len(models) != 6 {
		t.Fatalf("trained models = %v", models)
	}
	for _, m := range models {
		e, ok := fm.Entry(m)
		if !ok {
			t.Fatalf("entry for %s missing", m)
		}
		r := e.Report
		if r.TestAccuracy < 0.85 {
			t.Errorf("%s test accuracy = %v", m, r.TestAccuracy)
		}
		// Training accuracy stays at or above test accuracy (up to split
		// noise on the smaller models).
		if r.TrainAccuracy+0.02 < r.TestAccuracy {
			t.Errorf("%s train %v well below test %v", m, r.TrainAccuracy, r.TestAccuracy)
		}
		if r.FPR > 0.08 {
			t.Errorf("%s FPR = %v", m, r.FPR)
		}
		if r.FNR > 0.16 {
			t.Errorf("%s FNR = %v", m, r.FNR)
		}
		if r.CVMeanAcc < 0.85 {
			t.Errorf("%s CV accuracy = %v", m, r.CVMeanAcc)
		}
		if len(e.Weights) != len(m.Features()) {
			t.Errorf("%s weights = %d, features = %d", m, len(e.Weights), len(m.Features()))
		}
	}
	// Window weights: smoke first (Fig 6).
	e, _ := fm.Entry(dataset.ModelWindow)
	if e.Weights[0].Attr != "smoke" {
		t.Errorf("window top weight = %s, want smoke", e.Weights[0].Attr)
	}
}

func TestMemorySaveLoadRoundTrip(t *testing.T) {
	fm := memoryForTest(t)
	var buf bytes.Buffer
	if err := fm.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Restored memory must judge identically on fresh scenes.
	rng := rand.New(rand.NewSource(123))
	for _, m := range dataset.Models() {
		for i := 0; i < 20; i++ {
			snap, err := dataset.LegalScene(m, rng)
			if err != nil {
				t.Fatal(err)
			}
			a, err := fm.Judge(m, snap)
			if err != nil {
				t.Fatal(err)
			}
			b, err := back.Judge(m, snap)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%s: restored memory diverges", m)
			}
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("want decode error")
	}
	if _, err := Load(bytes.NewBufferString(`{"entries":{"window":{}}}`)); err == nil {
		t.Error("want missing-tree error")
	}
}

func TestMemoryJudgeErrors(t *testing.T) {
	fm := NewFeatureMemory()
	if _, err := fm.Judge(dataset.ModelWindow, sensor.NewSnapshot(sensorTime())); err == nil {
		t.Error("want no-model error")
	}
	trained := memoryForTest(t)
	// Context missing required features.
	if _, err := trained.Judge(dataset.ModelWindow, sensor.NewSnapshot(sensorTime())); err == nil {
		t.Error("want featurize error")
	}
}

func TestMemoryPutValidation(t *testing.T) {
	fm := NewFeatureMemory()
	if err := fm.Put(dataset.ModelWindow, nil); err == nil {
		t.Error("want nil entry error")
	}
	if err := fm.Put(dataset.ModelWindow, &Entry{}); err == nil {
		t.Error("want nil tree error")
	}
	trained := memoryForTest(t)
	e, _ := trained.Entry(dataset.ModelWindow)
	if err := fm.Put(dataset.ModelWindow, e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got := fm.Models(); len(got) != 1 || got[0] != dataset.ModelWindow {
		t.Errorf("Models = %v", got)
	}
}

func TestJudgerDecisions(t *testing.T) {
	j, err := NewJudger(detectorForTest(t), memoryForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	judge := func(op, deviceID string, ctx sensor.Snapshot) (Decision, error) {
		return j.Judge(buildInstr(t, op, deviceID), &ctx)
	}
	t.Run("non-sensitive allowed without context model", func(t *testing.T) {
		dec, err := judge("window.get_state", "window-1", sensor.NewSnapshot(sensorTime()))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Allowed || dec.Sensitive {
			t.Errorf("decision = %+v", dec)
		}
	})
	t.Run("sensitive legal context allowed", func(t *testing.T) {
		dec, err := judge("window.open", "window-1", legalCtx(t, dataset.ModelWindow))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Allowed || !dec.Sensitive || dec.Model != dataset.ModelWindow {
			t.Errorf("decision = %+v", dec)
		}
	})
	t.Run("sensitive attack context rejected", func(t *testing.T) {
		dec, err := judge("window.open", "window-1", attackCtx(t, dataset.ModelWindow))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Allowed {
			t.Errorf("attack context allowed: %+v", dec)
		}
	})
	t.Run("sensitive category outside model scope allowed", func(t *testing.T) {
		dec, err := judge("alarm.siren_on", "alarm-hub-1", sensor.NewSnapshot(sensorTime()))
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Allowed || !dec.Sensitive {
			t.Errorf("decision = %+v", dec)
		}
	})
	t.Run("constructor validation", func(t *testing.T) {
		if _, err := NewJudger(nil, memoryForTest(t)); err == nil {
			t.Error("want detector error")
		}
		if _, err := NewJudger(detectorForTest(t), nil); err == nil {
			t.Error("want memory error")
		}
	})
}

func sensorTime() time.Time { return time.Time{} }

func TestJudgeExplainProvidesPath(t *testing.T) {
	fm := memoryForTest(t)
	legal, path, err := fm.JudgeExplain(dataset.ModelWindow, attackCtx(t, dataset.ModelWindow))
	if err != nil {
		t.Fatal(err)
	}
	if legal {
		t.Error("attack context judged legal")
	}
	if path == "" || !strings.Contains(path, "class 0") {
		t.Errorf("explanation = %q", path)
	}
	// The judger surfaces the same explanation on decisions.
	j, err := NewJudger(detectorForTest(t), fm)
	if err != nil {
		t.Fatal(err)
	}
	attack := attackCtx(t, dataset.ModelWindow)
	dec, err := j.Judge(buildInstr(t, "window.open", "window-1"), &attack)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Explanation == "" {
		t.Error("decision carries no explanation")
	}
}

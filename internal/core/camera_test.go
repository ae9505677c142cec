package core

import (
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
)

func camSnap(vals map[sensor.Feature]bool, at time.Time) sensor.Snapshot {
	s := sensor.NewSnapshot(at)
	for f, v := range vals {
		s.Set(f, sensor.Bool(v))
	}
	return s
}

func TestCameraWarnerRisingEdges(t *testing.T) {
	w := NewCameraWarner()
	t0 := time.Date(2021, 4, 1, 3, 0, 0, 0, time.UTC)
	base := map[sensor.Feature]bool{
		sensor.FeatDoorOpen: false, sensor.FeatWindowOpen: false,
		sensor.FeatSmoke: false, sensor.FeatWaterLeak: false,
		sensor.FeatGas: false, sensor.FeatMotion: false,
		sensor.FeatOccupancy: false,
	}
	// First observation only primes the warner.
	if got := w.Observe(camSnap(base, t0)); len(got) != 0 {
		t.Fatalf("unprimed warner warned: %v", got)
	}

	// Door opens + motion while away: two warnings.
	next := map[sensor.Feature]bool{}
	for k, v := range base {
		next[k] = v
	}
	next[sensor.FeatDoorOpen] = true
	next[sensor.FeatMotion] = true
	got := w.Observe(camSnap(next, t0.Add(time.Minute)))
	if len(got) != 2 {
		t.Fatalf("warnings = %v", got)
	}
	triggers := map[dataset.WarnTrigger]bool{}
	for _, warning := range got {
		triggers[warning.Trigger] = true
		if warning.String() == "" {
			t.Error("empty warning string")
		}
	}
	if !triggers[dataset.WarnDoorWindowOpened] || !triggers[dataset.WarnMotion] {
		t.Errorf("triggers = %v", triggers)
	}

	// Level-high does not refire.
	if got := w.Observe(camSnap(next, t0.Add(2*time.Minute))); len(got) != 0 {
		t.Fatalf("level refire: %v", got)
	}

	// Motion while home does not warn.
	home := map[sensor.Feature]bool{}
	for k, v := range base {
		home[k] = v
	}
	home[sensor.FeatOccupancy] = true
	w.Observe(camSnap(home, t0.Add(3*time.Minute)))
	home[sensor.FeatMotion] = true
	if got := w.Observe(camSnap(home, t0.Add(4*time.Minute))); len(got) != 0 {
		t.Fatalf("motion-at-home warned: %v", got)
	}

	// Hazard sensors warn.
	hazard := map[sensor.Feature]bool{}
	for k, v := range base {
		hazard[k] = v
	}
	w.Observe(camSnap(hazard, t0.Add(5*time.Minute)))
	hazard[sensor.FeatSmoke] = true
	hazard[sensor.FeatWaterLeak] = true
	hazard[sensor.FeatGas] = true
	hazard[sensor.FeatWindowOpen] = true
	got = w.Observe(camSnap(hazard, t0.Add(6*time.Minute)))
	if len(got) != 4 {
		t.Fatalf("hazard warnings = %v", got)
	}

	hazards := map[dataset.WarnTrigger]int{}
	for _, warning := range got {
		hazards[warning.Trigger]++
		if !warning.At.Equal(t0.Add(6 * time.Minute)) {
			t.Errorf("warning %v stamped %v, want the snapshot's time", warning, warning.At)
		}
	}
	if hazards[dataset.WarnDoorWindowOpened] != 1 || hazards[dataset.WarnSmokeFire] != 1 ||
		hazards[dataset.WarnWaterLeak] != 1 || hazards[dataset.WarnGas] != 1 {
		t.Errorf("hazard triggers = %v", hazards)
	}

	// The counts tally every warning Observe returned, and Stats hands
	// out a copy.
	stats := w.Stats()
	if stats[dataset.WarnDoorWindowOpened] != 2 || stats[dataset.WarnSmokeFire] != 1 ||
		stats[dataset.WarnWaterLeak] != 1 || stats[dataset.WarnGas] != 1 || stats[dataset.WarnMotion] != 1 ||
		len(stats) != 5 {
		t.Errorf("stats = %v", stats)
	}
	stats[dataset.WarnGas] = 99
	if w.Stats()[dataset.WarnGas] != 1 {
		t.Error("Stats shares the warner's counts")
	}
}

func TestSamplingString(t *testing.T) {
	if SampleRandomOversample.String() != "random_oversample" ||
		SampleSMOTE.String() != "smote" || SampleNone.String() != "none" {
		t.Error("sampling names wrong")
	}
	if Sampling(9).String() != "sampling(9)" {
		t.Error("unknown sampling name")
	}
}

func TestTrainModelSamplingVariants(t *testing.T) {
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.Build(dataset.ModelKitchen, corpus, dataset.BuildConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Sampling{SampleRandomOversample, SampleSMOTE, SampleNone} {
		e, err := TrainModel(dataset.ModelKitchen, d, TrainConfig{Seed: 4, Sampling: s})
		if err != nil {
			t.Fatalf("sampling %s: %v", s, err)
		}
		if e.Report.TestAccuracy < 0.85 {
			t.Errorf("sampling %s accuracy = %v", s, e.Report.TestAccuracy)
		}
	}
	if _, err := TrainModel(dataset.ModelKitchen, d, TrainConfig{Seed: 4, Sampling: Sampling(99)}); err == nil {
		t.Error("want sampling error")
	}
}

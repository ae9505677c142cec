package core

import (
	"fmt"
	"maps"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
)

// Warning is one camera-linked user alert (§V, Fig 7).
type Warning struct {
	Trigger dataset.WarnTrigger `json:"trigger"`
	Message string              `json:"message"`
	At      time.Time           `json:"at"`
}

// CameraWarner implements the security-camera linkage: the paper's survey
// of 319 camera strategies (Fig 7) shows users want warnings when doors or
// windows open, when smoke/fire, water or gas sensors trip, and on motion
// while nobody is home. The warner watches successive snapshots and emits a
// warning on each rising edge of those conditions.
type CameraWarner struct {
	prev   sensor.Snapshot
	primed bool
	counts map[dataset.WarnTrigger]int
}

// NewCameraWarner returns an unprimed warner; the first Observe only
// establishes the baseline.
func NewCameraWarner() *CameraWarner {
	return &CameraWarner{counts: make(map[dataset.WarnTrigger]int)}
}

// Observe processes the next snapshot and returns the warnings it raised.
func (w *CameraWarner) Observe(snap sensor.Snapshot) []Warning {
	defer func() {
		w.prev = snap
		w.primed = true
	}()
	if !w.primed {
		return nil
	}
	var out []Warning
	emit := func(trigger dataset.WarnTrigger, msg string) {
		warning := Warning{Trigger: trigger, Message: msg, At: snap.At}
		out = append(out, warning)
		w.counts[trigger]++
	}
	rose := func(f sensor.Feature) bool {
		return snap.Bool(f) && !w.prev.Bool(f)
	}
	if rose(sensor.FeatDoorOpen) {
		emit(dataset.WarnDoorWindowOpened, "door opened")
	}
	if rose(sensor.FeatWindowOpen) {
		emit(dataset.WarnDoorWindowOpened, "window opened")
	}
	if rose(sensor.FeatSmoke) {
		emit(dataset.WarnSmokeFire, "smoke detected")
	}
	if rose(sensor.FeatWaterLeak) {
		emit(dataset.WarnWaterLeak, "water leak detected")
	}
	if rose(sensor.FeatGas) {
		emit(dataset.WarnGas, "combustible gas detected")
	}
	if rose(sensor.FeatMotion) && !snap.Bool(sensor.FeatOccupancy) {
		emit(dataset.WarnMotion, "motion while nobody is home")
	}
	return out
}

// Stats returns how many warnings each trigger has raised so far.
func (w *CameraWarner) Stats() map[dataset.WarnTrigger]int {
	return maps.Clone(w.counts)
}

// String renders a warning for logs.
func (w Warning) String() string {
	return fmt.Sprintf("[%s] %s", w.Trigger, w.Message)
}

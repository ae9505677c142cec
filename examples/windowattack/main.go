// Windowattack reproduces the paper's motivating attack (§III-A): malicious
// code forges the smoke sensor so the platform's "if fire, open the back
// window" automation fires while the burglar waits outside. With the IDS
// interceptor installed, the spoofed trigger is rejected; a genuine fire —
// whose correlates (air quality, occupancy, motion) are consistent — still
// opens the window.
package main

import (
	"fmt"
	"os"

	"iotsid/internal/automation"
	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "windowattack:", err)
		os.Exit(1)
	}
}

func run() error {
	h, err := home.NewStandard(home.EnvConfig{Seed: 5})
	if err != nil {
		return err
	}
	detector, err := core.DefaultDetector()
	if err != nil {
		return err
	}
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		return err
	}
	memory, err := core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
	if err != nil {
		return err
	}
	framework, err := core.New(core.Config{
		Detector:  detector,
		Collector: &core.SimCollector{Env: h.Env()},
		Memory:    memory,
	})
	if err != nil {
		return err
	}

	engine := automation.NewEngine(instr.BuiltinRegistry(), h.Execute)
	engine.SetInterceptor(framework.Interceptor())
	if err := engine.AddRuleText("fire vent", `WHEN smoke == TRUE THEN window.open @ window-1`); err != nil {
		return err
	}

	// --- Scene 1: the attack. Only the smoke boolean is forged. ---
	fmt.Println("scene 1: attacker spoofs the smoke sensor (clean air, empty home, night)")
	spoof := sensor.NewSnapshot(h.Env().Now())
	spoof.Set(sensor.FeatSmoke, sensor.Bool(true))
	spoof.Set(sensor.FeatGas, sensor.Bool(false))
	spoof.Set(sensor.FeatAirQuality, sensor.Number(28))
	spoof.Set(sensor.FeatMotion, sensor.Bool(false))
	spoof.Set(sensor.FeatOccupancy, sensor.Bool(false))
	spoof.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
	spoof.Set(sensor.FeatDoorLock, sensor.Label(sensor.LockUnlocked))
	h.Env().Apply(spoof)
	report(framework, engine.Evaluate(h.Env().Snapshot()))
	after := h.Env().Snapshot()
	fmt.Printf("  window open: %v\n\n", after.Bool(sensor.FeatWindowOpen))

	// --- Scene 2: a genuine fire with consistent correlates. ---
	fmt.Println("scene 2: a genuine kitchen fire (smoke + bad air + people home)")
	clearSmoke := sensor.NewSnapshot(h.Env().Now())
	clearSmoke.Set(sensor.FeatSmoke, sensor.Bool(false))
	h.Env().Apply(clearSmoke)
	engine.Evaluate(h.Env().Snapshot()) // falling edge

	fire := sensor.NewSnapshot(h.Env().Now())
	fire.Set(sensor.FeatSmoke, sensor.Bool(true))
	fire.Set(sensor.FeatGas, sensor.Bool(false))
	fire.Set(sensor.FeatAirQuality, sensor.Number(215))
	fire.Set(sensor.FeatMotion, sensor.Bool(true))
	fire.Set(sensor.FeatOccupancy, sensor.Bool(true))
	fire.Set(sensor.FeatDoorLock, sensor.Label(sensor.LockLocked))
	h.Env().Apply(fire)
	report(framework, engine.Evaluate(h.Env().Snapshot()))
	after = h.Env().Snapshot()
	fmt.Printf("  window open: %v\n", after.Bool(sensor.FeatWindowOpen))
	return nil
}

func report(framework *core.Framework, events []automation.Event) {
	for _, ev := range events {
		verdict := "BLOCKED"
		if ev.Allowed {
			verdict = "ALLOWED"
		}
		fmt.Printf("  rule %q fired: %s @ %s → %s\n    %s\n", ev.Rule, ev.Op, ev.DeviceID, verdict, ev.Reason)
	}
	if len(events) == 0 {
		fmt.Println("  (no rule fired)")
	}
	// The determiner's decision path for the last judgment.
	if log := framework.Log(); len(log) > 0 {
		last := log[len(log)-1]
		if last.Decision.Explanation != "" {
			fmt.Printf("    decision path: %s\n", last.Decision.Explanation)
		}
	}
}

// Camerawarn exercises the security-camera linkage of §V / Fig 7: the
// camera warner watches the home for a simulated week and pushes a user
// alert on every door/window opening, hazard-sensor trip and away-motion
// event, mirroring the warning categories of the paper's 319 camera
// strategies.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/home"
	"iotsid/internal/instr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "camerawarn:", err)
		os.Exit(1)
	}
}

func run() error {
	days := flag.Int("days", 7, "simulated days")
	seed := flag.Int64("seed", 3, "world seed")
	flag.Parse()

	h, err := home.NewStandard(home.EnvConfig{Seed: *seed})
	if err != nil {
		return err
	}
	cam, ok := h.Device(home.StandardDeviceIDs[instr.CatCamera])
	if !ok {
		return fmt.Errorf("no camera in the standard home")
	}
	warner := core.NewCameraWarner()

	fmt.Println("warnings as the camera pushes them:")
	pushed := 0
	steps := *days * 24 * 60
	for i := 0; i < steps; i++ {
		h.Env().Step(time.Minute)
		snap := h.Env().Snapshot()
		for _, w := range warner.Observe(snap) {
			fmt.Printf("  %s  %s\n", w.At.Format("Jan 2 15:04"), w)
			pushed++
			// Push the alert through the camera device, as the linkage
			// strategies do.
			alert, err := instr.BuiltinRegistry().Build("camera.alert_user", cam.ID(),
				instr.OriginAutomation, map[string]any{"message": w.Message})
			if err != nil {
				return err
			}
			if err := h.Execute(alert); err != nil {
				return err
			}
		}
	}

	fmt.Printf("\nsimulated %d days: %d camera warnings pushed\n\n", *days, pushed)
	fmt.Println("warnings by trigger (compare Fig 7's category mix):")
	stats := warner.Stats()
	for _, trig := range []dataset.WarnTrigger{
		dataset.WarnDoorWindowOpened, dataset.WarnSmokeFire,
		dataset.WarnWaterLeak, dataset.WarnGas, dataset.WarnMotion,
	} {
		fmt.Printf("  %-22s %d\n", trig, stats[trig])
	}
	camera, ok := cam.(*home.Camera)
	if ok {
		fmt.Printf("\ncamera device recorded %d alert pushes\n", len(camera.Alerts()))
	}
	return nil
}

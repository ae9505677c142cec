package home

import (
	"sync"
	"testing"
	"time"

	"iotsid/internal/instr"
)

// TestConcurrentStepExecuteSnapshot drives the environment stepper, device
// execution and snapshot readers from separate goroutines — the shape of a
// live deployment (physics loop + protocol servers + collector). Run under
// -race this pins down the environment's locking discipline.
func TestConcurrentStepExecuteSnapshot(t *testing.T) {
	h, err := NewStandard(EnvConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	reg := instr.BuiltinRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Physics loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Env().Step(time.Second)
			}
		}
	}()
	// Device actuation loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ops := []struct{ op, dev string }{
			{"light.on", "light-1"}, {"light.off", "light-1"},
			{"window.open", "window-1"}, {"window.close", "window-1"},
			{"aircon.set_cool", "aircon-1"}, {"aircon.off", "aircon-1"},
		}
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
				in, err := reg.Build(ops[i%len(ops)].op, ops[i%len(ops)].dev, instr.OriginUser, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if err := h.Execute(in); err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}
	}()
	// Snapshot + device-state readers (the collector's view).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					snap := h.Env().Snapshot()
					if err := roundTrip(snap); err != nil {
						t.Errorf("snapshot invalid under concurrency: %v", err)
						return
					}
					for _, d := range h.Devices() {
						_ = d.State()
					}
				}
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

package eval

import (
	"context"
	"fmt"

	"iotsid/internal/par"
)

// runUnits is the fan-out every campaign shares. It runs unit once per
// (scenario, round) pair over s.Config.Workers goroutines and returns the
// results grouped by scenario, each group in round order. A unit gets its
// scenario, its round and its global index u = scenario*rounds + round;
// campaigns seed everything a unit owns from those before it runs, so the
// results are identical at any worker count. ctx is checked before each
// unit starts.
func runUnits[T any](ctx context.Context, s *Suite, scenarios, rounds int,
	unit func(scenario, round int, u int64) (T, error)) ([][]T, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("eval: rounds must be positive")
	}
	flat, err := par.Map(scenarios*rounds, s.Config.Workers, func(u int) (T, error) {
		if err := ctx.Err(); err != nil {
			var zero T
			return zero, err
		}
		return unit(u/rounds, u%rounds, int64(u))
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, scenarios)
	for i := range out {
		out[i] = flat[i*rounds : (i+1)*rounds]
	}
	return out, nil
}

// Tally counts one scenario on the two axes every campaign reports:
// attack instructions and how many the IDS blocked (safety), legitimate
// instructions and how many it wrongly blocked (the availability cost).
type Tally struct {
	AttackAttempts int `json:"attack_attempts"`
	AttackBlocked  int `json:"attack_blocked"`
	LegitAttempts  int `json:"legit_attempts"`
	LegitBlocked   int `json:"legit_blocked"`
}

// Attack counts one attack instruction.
func (t *Tally) Attack(blocked bool) {
	t.AttackAttempts++
	if blocked {
		t.AttackBlocked++
	}
}

// Legit counts one legitimate instruction.
func (t *Tally) Legit(blocked bool) {
	t.LegitAttempts++
	if blocked {
		t.LegitBlocked++
	}
}

// Add merges o into t.
func (t *Tally) Add(o Tally) {
	t.AttackAttempts += o.AttackAttempts
	t.AttackBlocked += o.AttackBlocked
	t.LegitAttempts += o.LegitAttempts
	t.LegitBlocked += o.LegitBlocked
}

// Safety is the fraction of attack instructions blocked; 1 when none
// were staged.
func (t Tally) Safety() float64 {
	if t.AttackAttempts == 0 {
		return 1
	}
	return float64(t.AttackBlocked) / float64(t.AttackAttempts)
}

// Availability is the fraction of legitimate instructions served; 1 when
// none were issued.
func (t Tally) Availability() float64 {
	if t.LegitAttempts == 0 {
		return 1
	}
	return 1 - float64(t.LegitBlocked)/float64(t.LegitAttempts)
}

// FNV-64 parameters of the campaign digests.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvFold folds one value into a unit's digest (an FNV-1a step).
func fnvFold(d, v uint64) uint64 { return (d ^ v) * fnvPrime }

// fnvChain chains one unit's digest into a campaign digest, in unit
// order (an FNV-1 step).
func fnvChain(d, unit uint64) uint64 { return d*fnvPrime ^ unit }

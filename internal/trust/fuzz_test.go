package trust

import (
	"math"
	"testing"
	"time"

	"iotsid/internal/sensor"
)

// fuzzFeature picks a vocabulary feature by slot, wrapping any index: a
// snapshot only ever holds vocabulary features.
func fuzzFeature(i uint8) sensor.Feature {
	return sensor.Vocabulary()[int(i)%sensor.NumFeatures].Feature
}

// fuzzSnapshots decodes the shared fuzz argument tuple into an
// adversarial (previous, current) snapshot pair: two vocabulary slots
// (a number and a boolean, possibly of the wrong type for the feature),
// two numeric values the fuzzer may drive to NaN/Inf, a boolean pair,
// and raw nanosecond timestamps (zero stays the zero time).
func fuzzSnapshots(ia, ib uint8, va, vb float64, ba, bb bool, atPrev, atCur int64) (sensor.Snapshot, sensor.Snapshot) {
	fa, fb := fuzzFeature(ia), fuzzFeature(ib)
	ts := func(n int64) time.Time {
		if n == 0 {
			return time.Time{}
		}
		return time.Unix(0, n)
	}
	prev := sensor.Snapshot{At: ts(atPrev)}
	prev.Set(fa, sensor.Number(va))
	prev.Set(fb, sensor.Bool(ba))
	prev.Set(sensor.FeatOccupancy, sensor.Bool(bb))
	cur := sensor.Snapshot{At: ts(atCur)}
	cur.Set(fa, sensor.Number(vb))
	cur.Set(fb, sensor.Bool(bb))
	cur.Set(sensor.FeatMotion, sensor.Bool(ba))
	cur.Set(sensor.FeatAirQuality, sensor.Value{}) // absent (null) value
	return prev, cur
}

// slot returns a feature's vocabulary slot as a fuzz argument.
func slot(f sensor.Feature) uint8 {
	i, _ := sensor.SlotOf(f)
	return uint8(i)
}

// FuzzInvariants drives the invariant-table evaluator over adversarial
// snapshot pairs. The evaluator must be total (no panics on NaN/Inf,
// wrongly typed or absent values, zero timestamps, or a rule naming a
// feature outside the vocabulary), must pair every firing with a
// non-empty detail, and must be a pure function of its inputs.
func FuzzInvariants(f *testing.F) {
	f.Add(slot(sensor.FeatTempIndoor), slot(sensor.FeatMotion), 22.5, -300.0, true, false, int64(0), int64(0))
	f.Add(slot(sensor.FeatAirQuality), slot(sensor.FeatOccupancy), math.NaN(), math.Inf(1), false, true, int64(1_600_000_000), int64(1))
	f.Add(slot(sensor.FeatHumidity), uint8(255), -5.0, 150.0, true, true, int64(-1), int64(0))
	f.Add(slot(sensor.FeatHour), slot(sensor.FeatWindowOpen), 23.9, 24.1, false, false, int64(0), int64(7))
	f.Fuzz(func(t *testing.T, ia, ib uint8, va, vb float64, ba, bb bool, atPrev, atCur int64) {
		prev, cur := fuzzSnapshots(ia, ib, va, vb, ba, bb, atPrev, atCur)
		fa, fb := fuzzFeature(ia), fuzzFeature(ib)
		table := append(DefaultInvariants(),
			Invariant{Name: "fuzz_step", Kind: MaxStep, Feature: fa, Limit: 1},
			Invariant{Name: "fuzz_range", Kind: Range, Feature: fa, Min: -1, Max: 1},
			Invariant{Name: "fuzz_contra", Kind: Contradiction, A: fb, B: sensor.FeatMotion},
			Invariant{Name: "fuzz_unknown", Kind: Range, Feature: "not_a_feature", Min: -1, Max: 1},
		)
		for _, iv := range table {
			violated, detail := iv.Eval(&prev, &cur)
			if violated && detail == "" {
				t.Fatalf("invariant %s fired without detail", iv.Name)
			}
			if v2, d2 := iv.Eval(&prev, &cur); v2 != violated || d2 != detail {
				t.Fatalf("invariant %s not deterministic: (%v,%q) vs (%v,%q)", iv.Name, violated, detail, v2, d2)
			}
		}
	})
}

// FuzzObserve drives a whole engine over an adversarial two-observation
// stream: the score must stay a finite number in [0,1], the atomics must
// agree with the threshold, and two engines fed the same stream must
// land on bit-identical scores.
func FuzzObserve(f *testing.F) {
	f.Add(slot(sensor.FeatTempIndoor), slot(sensor.FeatMotion), 22.5, math.NaN(), true, false, int64(0), int64(0))
	f.Add(slot(sensor.FeatAirQuality), uint8(200), math.Inf(-1), -40.0, false, true, int64(2), int64(1))
	f.Add(slot(sensor.FeatPowerDraw), slot(sensor.FeatOccupancy), 1e308, -1e308, true, true, int64(1_600_000_000_000_000_000), int64(1_600_000_000_000_000_001))
	f.Fuzz(func(t *testing.T, ia, ib uint8, va, vb float64, ba, bb bool, atPrev, atCur int64) {
		prev, cur := fuzzSnapshots(ia, ib, va, vb, ba, bb, atPrev, atCur)
		run := func() float64 {
			e, err := NewEngine(Config{BaselineObs: 1}, SourceConfig{Name: "sim", Required: true})
			if err != nil {
				t.Fatal(err)
			}
			e.Observe("sim", prev, prev.At)
			e.Observe("sim", cur, cur.At)
			sc, _ := e.Score("sim")
			if math.IsNaN(sc) || sc < 0 || sc > 1 {
				t.Fatalf("score degenerated to %v", sc)
			}
			idx, _ := e.Index("sim")
			if e.TrustedIdx(idx) != (sc >= e.Threshold()) {
				t.Fatalf("trusted flag disagrees with score %v (threshold %v)", sc, e.Threshold())
			}
			return sc
		}
		a, b := run(), run()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("same stream, different scores: %x vs %x", math.Float64bits(a), math.Float64bits(b))
		}
	})
}

package sensor

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// randomSnapshot draws a vocabulary-valid snapshot with a random subset of
// features.
func randomSnapshot(rng *rand.Rand) Snapshot {
	s := NewSnapshot(time.Unix(rng.Int63n(1<<30), 0))
	for _, d := range Vocabulary() {
		if rng.Intn(2) == 0 {
			continue
		}
		switch d.Type {
		case TypeBool:
			s.Set(d.Feature, Bool(rng.Intn(2) == 1))
		case TypeNumber:
			s.Set(d.Feature, Number(float64(rng.Intn(1000))/10))
		case TypeLabel:
			s.Set(d.Feature, Label(d.Labels[rng.Intn(len(d.Labels))]))
		}
	}
	return s
}

// TestMergePropertiesQuick checks algebraic properties of Merge: merging
// with an empty snapshot is identity on values; self-merge is idempotent;
// and the overlay's values always win.
func TestMergePropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSnapshot(rng)
		b := randomSnapshot(rng)

		// Identity.
		empty := NewSnapshot(time.Time{})
		id := a
		id.Merge(&empty)
		if !sameValues(id, a) {
			return false
		}
		// Idempotence.
		self := a
		self.Merge(&a)
		if !sameValues(self, a) {
			return false
		}
		// Overlay wins; union of keys.
		m := a
		m.Merge(&b)
		for _, d := range Vocabulary() {
			mv, inM := m.Get(d.Feature)
			av, inA := a.Get(d.Feature)
			bv, inB := b.Get(d.Feature)
			switch {
			case inM != (inA || inB):
				return false
			case inB && mv != bv, !inB && inA && mv != av:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// legacyJSON is the snapshot's wire form as encoding/json renders it from
// a feature-keyed map: MarshalJSON must emit exactly these bytes.
func legacyJSON(s Snapshot) ([]byte, error) {
	vals := make(map[string]Value, s.Len())
	for i := 0; i < NumFeatures; i++ {
		if f, v, ok := s.Slot(i); ok {
			vals[string(f)] = v
		}
	}
	return json.Marshal(struct {
		At     time.Time        `json:"at"`
		Values map[string]Value `json:"values"`
	}{s.At, vals})
}

// TestSnapshotJSONQuick round-trips random snapshots through the unified
// JSON form, whose bytes match encoding/json's rendering of a map.
func TestSnapshotJSONQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSnapshot(rng)
		data, err := s.MarshalJSON()
		if err != nil {
			return false
		}
		var back Snapshot
		if err := back.UnmarshalJSON(data); err != nil {
			return false
		}
		legacy, err := legacyJSON(s)
		return err == nil && bytes.Equal(data, legacy) && sameValues(back, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

package sensor

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// Reading is a single timestamped measurement from one physical sensor.
type Reading struct {
	SensorID string    `json:"sensor_id"`
	Kind     Kind      `json:"kind"`
	Feature  Feature   `json:"feature"`
	Value    Value     `json:"value"`
	At       time.Time `json:"at"`
}

// Snapshot is the joint state of every sensor participating in a scene at
// one instant — the paper's "sensor context". It holds one value slot per
// vocabulary feature plus a presence mask, so it is a plain value:
// assignment copies it, and no two snapshots ever share state. A present
// slot may hold the zero (absent) Value — a feature reported as JSON null.
// The accessors take a pointer receiver so reading a feature does not
// copy the whole snapshot.
type Snapshot struct {
	At   time.Time
	vals [NumFeatures]Value
	mask uint32
}

// NewSnapshot creates an empty snapshot stamped at t.
func NewSnapshot(t time.Time) Snapshot {
	return Snapshot{At: t}
}

// Set stores a feature value, replacing any previous one. Setting a
// feature outside the vocabulary is a programming error and panics.
func (s *Snapshot) Set(f Feature, v Value) {
	i := mustSlot(f)
	s.vals[i] = v
	s.mask |= 1 << i
}

// Get returns the value of a feature and whether it is present.
func (s *Snapshot) Get(f Feature) (Value, bool) {
	i, ok := slotOf[f]
	if !ok || s.mask&(1<<i) == 0 {
		return Value{}, false
	}
	return s.vals[i], true
}

// Len returns the number of present features.
func (s *Snapshot) Len() int { return bits.OnesCount32(s.mask) }

// Slot returns the feature of slot i (0 <= i < NumFeatures) and its value;
// ok is false when the feature is not present. Walking the slots in order
// visits the present features sorted by name.
func (s *Snapshot) Slot(i int) (Feature, Value, bool) {
	if s.mask&(1<<i) == 0 {
		return "", Value{}, false
	}
	return vocabulary[i].Feature, s.vals[i], true
}

// Bool returns a boolean feature, defaulting to false when absent or not a
// boolean.
func (s *Snapshot) Bool(f Feature) bool {
	v, _ := s.Get(f)
	b, _ := v.Bool()
	return b
}

// Number returns a numeric feature and whether it was present and numeric.
func (s *Snapshot) Number(f Feature) (float64, bool) {
	v, _ := s.Get(f)
	return v.Number()
}

// LabelOr returns a label feature, or def when absent or not a label.
func (s *Snapshot) LabelOr(f Feature, def string) string {
	v, _ := s.Get(f)
	l, ok := v.Label()
	if !ok {
		return def
	}
	return l
}

// Merge overlays o onto s; o's values win on conflict, and the later
// timestamp is kept.
func (s *Snapshot) Merge(o *Snapshot) {
	for m := o.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		s.vals[i] = o.vals[i]
	}
	s.mask |= o.mask
	if o.At.After(s.At) {
		s.At = o.At
	}
}

// Features lists the snapshot's features in name order.
func (s *Snapshot) Features() []Feature {
	out := make([]Feature, 0, s.Len())
	for m := s.mask; m != 0; m &= m - 1 {
		out = append(out, vocabulary[bits.TrailingZeros32(m)].Feature)
	}
	return out
}

// MarshalJSON encodes the snapshot as {"at": ..., "values": {feature: value}},
// the unified JSON document the paper's collector hands to the feature
// memory. Features appear in name order, as encoding/json orders map keys.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	at, err := s.At.MarshalJSON()
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(at)+24+24*s.Len())
	b = append(b, `{"at":`...)
	b = append(b, at...)
	b = append(b, `,"values":{`...)
	for m := s.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if m != s.mask {
			b = append(b, ',')
		}
		v, err := s.vals[i].MarshalJSON()
		if err != nil {
			return nil, err
		}
		b = append(b, '"')
		b = append(b, vocabulary[i].Feature...)
		b = append(b, `":`...)
		b = append(b, v...)
	}
	return append(b, "}}"...), nil
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON. Every
// feature must come from the vocabulary with a value of its type, and a
// label must lie in its domain; a JSON null decodes to a present, absent
// value.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var raw struct {
		At     time.Time         `json:"at"`
		Values map[Feature]Value `json:"values"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := Snapshot{At: raw.At}
	var unknown Feature // the first by name, so the error is stable
	var anyUnknown bool
	for f, v := range raw.Values {
		if i, ok := slotOf[f]; ok {
			out.vals[i], out.mask = v, out.mask|1<<i
		} else if !anyUnknown || f < unknown {
			unknown, anyUnknown = f, true
		}
	}
	if anyUnknown {
		return fmt.Errorf("sensor: unknown feature %q", unknown)
	}
	for m := out.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		d, v := &vocabulary[i], out.vals[i]
		switch {
		case v.IsZero():
		case v.typ != d.Type:
			return fmt.Errorf("sensor: feature %q has type %s, want %s", d.Feature, v.typ, d.Type)
		case d.Type == TypeLabel && !slices.Contains(d.Labels, v.s):
			return fmt.Errorf("sensor: feature %q label %q outside domain %v", d.Feature, v.s, d.Labels)
		}
	}
	*s = out
	return nil
}

// FromReadings folds a set of readings into a snapshot, keeping the newest
// reading per feature and skipping features outside the vocabulary (a
// Reading may come off the wire). The snapshot is stamped with the newest
// timestamp it keeps.
func FromReadings(readings []Reading) Snapshot {
	var snap Snapshot
	var newest [NumFeatures]time.Time
	for _, r := range readings {
		i, ok := slotOf[r.Feature]
		if !ok || snap.mask&(1<<i) != 0 && !r.At.After(newest[i]) {
			continue
		}
		newest[i] = r.At
		snap.vals[i], snap.mask = r.Value, snap.mask|1<<i
		if r.At.After(snap.At) {
			snap.At = r.At
		}
	}
	return snap
}

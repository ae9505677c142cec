package sensor

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unsafe"
)

var testTime = time.Date(2021, 3, 14, 15, 9, 26, 0, time.UTC)

func sampleSnapshot() Snapshot {
	s := NewSnapshot(testTime)
	s.Set(FeatSmoke, Bool(false))
	s.Set(FeatTempIndoor, Number(22.5))
	s.Set(FeatWeather, Label(WeatherRain))
	s.Set(FeatDoorLock, Label(LockLocked))
	return s
}

func TestSnapshotAccessors(t *testing.T) {
	s := sampleSnapshot()
	if s.Bool(FeatSmoke) {
		t.Error("smoke should be false")
	}
	if s.Bool(FeatMotion) {
		t.Error("absent boolean should default false")
	}
	if n, ok := s.Number(FeatTempIndoor); !ok || n != 22.5 {
		t.Errorf("temp = %v,%v", n, ok)
	}
	if _, ok := s.Number(FeatHumidity); ok {
		t.Error("absent number should not be ok")
	}
	if got := s.LabelOr(FeatWeather, "sunny"); got != WeatherRain {
		t.Errorf("weather = %q", got)
	}
	if got := s.LabelOr(FeatHour, "def"); got != "def" {
		t.Errorf("LabelOr on number = %q", got)
	}
	if got := s.LabelOr(Feature("nope"), "def"); got != "def" {
		t.Errorf("LabelOr on absent = %q", got)
	}
}

// sameValues reports whether two snapshots hold the same features with
// equal values, whatever their timestamps.
func sameValues(a, b Snapshot) bool {
	a.At, b.At = time.Time{}, time.Time{}
	return a == b
}

func TestSnapshotCopyIsolation(t *testing.T) {
	s := sampleSnapshot()
	c := s
	c.Set(FeatSmoke, Bool(true))
	c.Set(FeatMotion, Bool(true))
	if s.Bool(FeatSmoke) || s.Len() != 4 {
		t.Error("mutating a copy leaked into the original")
	}
}

// TestSnapshotSize pins the dense layout: one 32-byte Value per
// vocabulary slot, the timestamp and the presence mask. Snapshots are
// passed and stored by value, so their size is copy cost and fleet memory.
func TestSnapshotSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Snapshot{}); got > 704 {
		t.Errorf("Snapshot is %d bytes, want <= 704", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	s := sampleSnapshot()
	o := NewSnapshot(testTime.Add(time.Minute))
	o.Set(FeatSmoke, Bool(true))
	o.Set(FeatMotion, Bool(true))

	m := s
	m.Merge(&o)
	if !m.Bool(FeatSmoke) {
		t.Error("overlay value should win")
	}
	if !m.Bool(FeatMotion) {
		t.Error("overlay-only value missing")
	}
	if n, ok := m.Number(FeatTempIndoor); !ok || n != 22.5 {
		t.Error("base value lost in merge")
	}
	if !m.At.Equal(testTime.Add(time.Minute)) {
		t.Errorf("merge timestamp = %v", m.At)
	}
	if s.Bool(FeatSmoke) {
		t.Error("merging into a copy mutated the original")
	}
}

func TestSnapshotFeaturesSorted(t *testing.T) {
	s := sampleSnapshot()
	feats := s.Features()
	if len(feats) != 4 {
		t.Fatalf("len = %d", len(feats))
	}
	for i := 1; i < len(feats); i++ {
		if feats[i-1] >= feats[i] {
			t.Errorf("features not sorted: %v", feats)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !back.At.Equal(s.At) {
		t.Errorf("At = %v, want %v", back.At, s.At)
	}
	if !sameValues(back, s) {
		t.Errorf("round trip = %+v, want %+v", back, s)
	}
	if want := `{"at":"2021-03-14T15:09:26Z","values":{"door_lock":"locked","outdoor_weather":"rain","smoke":false,"temperature_in":22.5}}`; string(data) != want {
		t.Errorf("wire form = %s, want %s", data, want)
	}
}

func TestFromReadingsKeepsNewest(t *testing.T) {
	readings := []Reading{
		{SensorID: "a", Kind: KindTemperature, Feature: FeatTempIndoor, Value: Number(20), At: testTime},
		{SensorID: "a", Kind: KindTemperature, Feature: FeatTempIndoor, Value: Number(25), At: testTime.Add(time.Minute)},
		{SensorID: "a", Kind: KindTemperature, Feature: FeatTempIndoor, Value: Number(19), At: testTime.Add(-time.Minute)},
		{SensorID: "b", Kind: KindSmoke, Feature: FeatSmoke, Value: Bool(true), At: testTime},
		{SensorID: "c", Kind: KindTemperature, Feature: "temp_indoor", Value: Number(99), At: testTime.Add(time.Hour)},
	}
	s := FromReadings(readings)
	if n, _ := s.Number(FeatTempIndoor); n != 25 {
		t.Errorf("temp = %v, want newest 25", n)
	}
	if !s.Bool(FeatSmoke) {
		t.Error("smoke reading lost")
	}
	if !s.At.Equal(testTime.Add(time.Minute)) || s.Len() != 2 {
		t.Errorf("At = %v, len %d: the unknown feature's reading must be skipped", s.At, s.Len())
	}
}

// TestSnapshotValidate: decoding validates every snapshot against the
// vocabulary at the wire boundary. A feature outside the vocabulary, a
// value of the wrong type and a label outside its domain are rejected,
// and a rejected decode leaves the target as it was. A JSON null stays a
// present, absent-valued feature for the judges downstream to flag.
func TestSnapshotValidate(t *testing.T) {
	cases := []struct {
		name, values, wantErr string
	}{
		{"valid", `{"smoke":false,"temperature_in":22.5,"door_lock":"locked"}`, ""},
		{"unknown feature", `{"bogus":true,"temp_indoor":21.5}`, `unknown feature "bogus"`},
		{"empty feature name", `{"":true,"smoke":false}`, `unknown feature ""`},
		{"wrong type", `{"smoke":1}`, "has type number, want bool"},
		{"label outside domain", `{"outdoor_weather":"hail"}`, "outside domain"},
		{"object value", `{"smoke":{}}`, "unsupported raw value type"},
		{"absent value", `{"smoke":null}`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := sampleSnapshot()
			err := json.Unmarshal([]byte(`{"at":"2021-03-14T15:09:26Z","values":`+c.values+`}`), &s)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("decode error = %v, want %q", err, c.wantErr)
			}
			if !sameValues(s, sampleSnapshot()) {
				t.Error("a rejected decode modified the target")
			}
		})
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(`{"values":{"smoke":null}}`), &s); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(FeatSmoke); !ok || !v.IsZero() || s.Len() != 1 {
		t.Errorf("null feature = %v, %v (len %d), want present and absent", v, ok, s.Len())
	}
}

// TestSetOnZeroValueSnapshot: Set works on a zero-value Snapshot.
func TestSetOnZeroValueSnapshot(t *testing.T) {
	var s Snapshot
	s.Set(FeatSmoke, Bool(true))
	if !s.Bool(FeatSmoke) {
		t.Error("value lost after lazy allocation")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
	// A pointer to a zero-value snapshot works the same way.
	p := &Snapshot{}
	p.Set(FeatMotion, Bool(true))
	if !p.Bool(FeatMotion) {
		t.Error("pointer target lost value")
	}
}

// TestSetUnknownFeaturePanics: the slots cover exactly the vocabulary, so
// setting any other feature is a programming error, as in MustDescribe.
func TestSetUnknownFeaturePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set on an unknown feature did not panic")
		}
	}()
	var s Snapshot
	s.Set(Feature("temp_indoor"), Number(21.5))
}

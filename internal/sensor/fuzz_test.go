package sensor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// conforms checks a snapshot against the vocabulary: every present value
// has its feature's type, and every label lies in its feature's domain.
// Absent (null) values carry no type and pass.
func conforms(s Snapshot) error {
	for i := 0; i < NumFeatures; i++ {
		f, v, ok := s.Slot(i)
		if !ok || v.IsZero() {
			continue
		}
		d := MustDescribe(f)
		if v.Type() != d.Type {
			return fmt.Errorf("feature %q has type %s, want %s", f, v.Type(), d.Type)
		}
		if l, _ := v.Label(); d.Type == TypeLabel && !slices.Contains(d.Labels, l) {
			return fmt.Errorf("feature %q label %q outside domain %v", f, l, d.Labels)
		}
	}
	return nil
}

// FuzzSnapshotJSON hardens the snapshot wire codec against hostile bytes:
// decoding never panics, whatever decodes speaks the vocabulary, and it
// re-encodes — to the bytes encoding/json renders for the same map — into
// a document that decodes back to the same snapshot and re-encodes to the
// same bytes. Seeds live in testdata/fuzz/FuzzSnapshotJSON.
func FuzzSnapshotJSON(f *testing.F) {
	f.Add([]byte(`{"at":"2021-04-01T10:00:00Z","values":{"window_open":true,"temperature_in":21.5,"door_lock":"locked"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if err := conforms(s); err != nil {
			t.Fatalf("decoded %q outside the vocabulary: %v", data, err)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("decoded %q but cannot re-encode it: %v", data, err)
		}
		if legacy, err := legacyJSON(s); err != nil || !bytes.Equal(enc, legacy) {
			t.Fatalf("encoding %s differs from encoding/json's %s (%v)", enc, legacy, err)
		}
		var back Snapshot
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", enc, err)
		}
		if !back.At.Equal(s.At) || !sameValues(back, s) {
			t.Fatalf("round trip changed the snapshot: %+v -> %+v", s, back)
		}
		again, err := json.Marshal(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable: %s -> %s (%v)", enc, again, err)
		}
	})
}

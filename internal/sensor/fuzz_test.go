package sensor

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSnapshotJSON hardens the snapshot wire codec against hostile bytes:
// decoding never panics, and anything that decodes re-encodes to a
// document that decodes back to the same snapshot and re-encodes to the
// same bytes. Seeds live in testdata/fuzz/FuzzSnapshotJSON.
func FuzzSnapshotJSON(f *testing.F) {
	f.Add([]byte(`{"at":"2021-04-01T10:00:00Z","values":{"window_open":true,"temp_indoor":21.5,"door_lock":"locked"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("decoded %q but cannot re-encode it: %v", data, err)
		}
		var back Snapshot
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", enc, err)
		}
		if !back.At.Equal(s.At) || len(back.Values) != len(s.Values) {
			t.Fatalf("round trip changed the snapshot: %+v -> %+v", s, back)
		}
		for f, v := range s.Values {
			if w, ok := back.Values[f]; !ok || w != v {
				t.Fatalf("round trip changed feature %q: %+v -> %+v", f, v, w)
			}
		}
		again, err := json.Marshal(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable: %s -> %s (%v)", enc, again, err)
		}
	})
}

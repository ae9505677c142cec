package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
)

func appendFor(l *DecisionLog, device, op string) {
	l.Append(instr.Instruction{Op: op, DeviceID: device}, Decision{Allowed: true, Reason: op}, time.Time{})
}

// TestLogCellSize guards the stored ring cell. Every fleet home allocates
// a 64-cell ring when it is added, so the cell size is fleet memory: a
// 128-byte cell moved the fleet-gateway benchmark's server RSS from about
// 287 MB to about 361 MB (+26%), where a 96-byte cell stayed within noise.
func TestLogCellSize(t *testing.T) {
	if got := unsafe.Sizeof(logCell{}); got > 96 {
		t.Fatalf("logCell is %d bytes, want <= 96", got)
	}
}

// TestDecisionLogRoundTrip: every LogEntry field survives the packed cell.
func TestDecisionLogRoundTrip(t *testing.T) {
	l := NewDecisionLog(4, nil, nil)
	at := time.Date(2021, 4, 1, 10, 1, 0, 7, time.UTC)
	want := []LogEntry{
		{Seq: 1, Op: "window.open", DeviceID: "window-1", Origin: instr.OriginAutomation, ContextAt: at,
			Decision: Decision{Sensitive: true, Model: dataset.ModelWindow, Reason: "r", Explanation: "x"}},
		{Seq: 2, Op: "light.on", DeviceID: "lamp-1", Origin: instr.OriginUser,
			Decision: Decision{Allowed: true, Reason: "ok"}},
	}
	for _, e := range want {
		l.Append(instr.Instruction{Op: e.Op, DeviceID: e.DeviceID, Origin: e.Origin}, e.Decision, e.ContextAt)
	}
	got := l.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDecisionLogOrdersAcrossDevices(t *testing.T) {
	l := NewDecisionLog(128, nil, nil)
	for i := 0; i < 50; i++ {
		appendFor(l, fmt.Sprintf("dev-%d", i), fmt.Sprintf("op-%d", i))
	}
	got := l.Snapshot()
	if len(got) != 50 {
		t.Fatalf("snapshot = %d entries", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d — not in append order", i, e.Seq)
		}
		if e.Op != fmt.Sprintf("op-%d", i) || e.DeviceID != fmt.Sprintf("dev-%d", i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

func TestDecisionLogStaysBounded(t *testing.T) {
	const capacity = 64
	l := NewDecisionLog(capacity, nil, nil)
	// Hammer a single device: the ring overflows many times and retains
	// exactly its capacity, however the traffic is spread over devices.
	for i := 0; i < 10*capacity; i++ {
		appendFor(l, "dev-hot", fmt.Sprintf("op-%d", i))
	}
	got := l.Snapshot()
	if len(got) != capacity {
		t.Fatalf("log retained %d entries, want capacity %d", len(got), capacity)
	}
	// The retained entries are the newest ones, in order.
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("retained entries not contiguous: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
	if got[len(got)-1].Op != fmt.Sprintf("op-%d", 10*capacity-1) {
		t.Fatalf("newest retained = %+v", got[len(got)-1])
	}
	if d := NewDecisionLog(0, nil, nil); len(d.buf) != defaultLogCapacity {
		t.Fatalf("zero capacity gave a %d-entry ring, want the %d default", len(d.buf), defaultLogCapacity)
	}
}

func TestDecisionLogRecent(t *testing.T) {
	l := NewDecisionLog(128, nil, nil)
	for i := 0; i < 30; i++ {
		appendFor(l, fmt.Sprintf("dev-%d", i%7), fmt.Sprintf("op-%d", i))
	}
	recent := l.Recent(5)
	if len(recent) != 5 {
		t.Fatalf("Recent(5) = %d entries", len(recent))
	}
	for i, e := range recent {
		if e.Op != fmt.Sprintf("op-%d", 25+i) {
			t.Fatalf("recent[%d] = %+v", i, e)
		}
	}
	if got := l.Recent(1000); len(got) != 30 {
		t.Fatalf("Recent(1000) = %d", len(got))
	}
	if got := l.Recent(-1); len(got) != 0 {
		t.Fatalf("Recent(-1) = %d", len(got))
	}
}

func TestDecisionLogConcurrentAppend(t *testing.T) {
	l := NewDecisionLog(4096, nil, nil)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				appendFor(l, fmt.Sprintf("dev-%d-%d", g, i), "op")
			}
		}(g)
	}
	// Concurrent readers must see a consistent, ordered view.
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < 50; i++ {
				snap := l.Snapshot()
				for j := 1; j < len(snap); j++ {
					if snap[j].Seq != snap[j-1].Seq+1 {
						t.Error("snapshot out of order")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	rwg.Wait()
	if got := l.Snapshot(); len(got) != goroutines*perG {
		t.Fatalf("retained %d of %d appends", len(got), goroutines*perG)
	}
}

// TestDecisionLogRingEviction: past capacity the ring keeps exactly the
// trailing window of sequence numbers, oldest first.
func TestDecisionLogRingEviction(t *testing.T) {
	l := NewDecisionLog(16, nil, nil)
	for i := 0; i < 40; i++ {
		appendFor(l, "dev", "op")
	}
	got := l.Snapshot()
	if len(got) != 16 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Seq != 25 || got[len(got)-1].Seq != 40 {
		t.Errorf("retained seqs %d..%d, want 25..40", got[0].Seq, got[len(got)-1].Seq)
	}
}

// TestDecisionLogConcurrentAppendRecent: writers that read the newest
// entries between appends lose nothing and always see them in order.
func TestDecisionLogConcurrentAppendRecent(t *testing.T) {
	l := NewDecisionLog(256, nil, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				appendFor(l, "dev", "op")
				recent := l.Recent(10)
				for j := 1; j < len(recent); j++ {
					if recent[j].Seq != recent[j-1].Seq+1 {
						t.Error("Recent out of order")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	got := l.Snapshot()
	if len(got) != 256 {
		t.Fatalf("len = %d", len(got))
	}
	if last := got[len(got)-1].Seq; last != 1600 {
		t.Errorf("newest seq = %d, want 1600", last)
	}
}

// TestDecisionLogEvictionCounterMatchesObservedDrops drives the ring past
// capacity and checks its counters against the ring's own accounting:
// appends == the newest Seq, evictions == newest Seq - retained.
func TestDecisionLogEvictionCounterMatchesObservedDrops(t *testing.T) {
	reg := obs.NewRegistry()
	appends := reg.NewCounter(metricLogAppends, "Entries appended to the authorization decision log.")
	evictions := reg.NewCounter(metricLogEvictions, "Oldest entries overwritten (dropped) by the decision log's bounded ring.")
	l := NewDecisionLog(16, appends, evictions)
	const n = 57 // capacity 16 → 41 evictions
	for i := 0; i < n; i++ {
		appendFor(l, fmt.Sprintf("dev-%d", i), "op")
	}
	got := l.Snapshot()
	total := got[len(got)-1].Seq
	if appends.Value() != total || total != n {
		t.Fatalf("appends counter %d, newest seq %d, want %d", appends.Value(), total, n)
	}
	if want := total - uint64(len(got)); evictions.Value() != want {
		t.Fatalf("eviction counter %d, want newest seq - retained = %d", evictions.Value(), want)
	}
	if evictions.Value() != n-16 {
		t.Fatalf("eviction counter %d, want %d", evictions.Value(), n-16)
	}
}

// TestDecisionLogUninstrumentedAppend: a log built with nil counters still
// records and evicts (the counters are nil-safe no-ops).
func TestDecisionLogUninstrumentedAppend(t *testing.T) {
	l := NewDecisionLog(16, nil, nil)
	for i := 0; i < 20; i++ {
		appendFor(l, "dev", "op")
	}
	got := l.Snapshot()
	if len(got) != 16 || got[0].Seq != 5 || got[len(got)-1].Seq != 20 {
		t.Fatalf("retained %d entries, seqs %d..%d", len(got), got[0].Seq, got[len(got)-1].Seq)
	}
}

// TestDecisionLogRingInvariantsQuick checks the ring under random
// capacities and append counts: it retains min(capacity, appends) entries
// (capacity <= 0 meaning the default), and their sequence numbers are the
// trailing window, in order.
func TestDecisionLogRingInvariantsQuick(t *testing.T) {
	f := func(capRaw int8, nRaw uint16) bool {
		capacity := int(capRaw)
		n := int(nRaw) % 2048
		l := NewDecisionLog(capacity, nil, nil)
		effectiveCap := capacity
		if effectiveCap <= 0 {
			effectiveCap = defaultLogCapacity
		}
		for i := 0; i < n; i++ {
			appendFor(l, "dev", "op")
		}
		wantLen := min(n, effectiveCap)
		got := l.Snapshot()
		if len(got) != wantLen {
			return false
		}
		for i, e := range got {
			if e.Seq != uint64(n-wantLen+i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

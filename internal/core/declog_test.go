package core

import (
	"fmt"
	"sync"
	"testing"

	"iotsid/internal/instr"
)

func appendFor(l *DecisionLog, device, op string) {
	l.Append(instr.Instruction{Op: op, DeviceID: device}, Decision{Allowed: true, Reason: op})
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

package core

import (
	"sync"

	"iotsid/internal/instr"
	"iotsid/internal/obs"
)

// LogEntry records one authorisation. Seq numbers the log's appends from 1.
type LogEntry struct {
	Seq      uint64   `json:"seq"`
	Op       string   `json:"op"`
	DeviceID string   `json:"device_id"`
	Decision Decision `json:"decision"`
}

// DecisionLog is a fixed-capacity ring of authorisation records: the
// framework's log and each fleet home's audit tail. It never blocks and
// never grows; the only way it drops is by overwriting its oldest entry,
// which the optional eviction counter makes visible.
type DecisionLog struct {
	mu   sync.Mutex
	buf  []LogEntry // ring storage, len == capacity
	next uint64     // entries ever appended

	appends   *obs.Counter // nil when uninstrumented
	evictions *obs.Counter
}

// defaultLogCapacity sizes a log whose caller did not choose a capacity.
const defaultLogCapacity = 4096

// NewDecisionLog returns a ring retaining the newest capacity entries
// (default 4096 when capacity <= 0). appends and evictions, when non-nil,
// count every append and every overwritten entry.
func NewDecisionLog(capacity int, appends, evictions *obs.Counter) *DecisionLog {
	if capacity <= 0 {
		capacity = defaultLogCapacity
	}
	return &DecisionLog{buf: make([]LogEntry, capacity), appends: appends, evictions: evictions}
}

// Append records one decision, stamping it with the next sequence number.
//
//iot:hotpath
func (l *DecisionLog) Append(in instr.Instruction, dec Decision) {
	l.mu.Lock()
	evicted := l.next >= uint64(len(l.buf))
	l.next++
	l.buf[(l.next-1)%uint64(len(l.buf))] = LogEntry{Seq: l.next, Op: in.Op, DeviceID: in.DeviceID, Decision: dec}
	l.mu.Unlock()
	l.appends.Inc()
	if evicted {
		l.evictions.Inc()
	}
}

// Snapshot copies every retained entry, oldest first.
func (l *DecisionLog) Snapshot() []LogEntry { return l.Recent(len(l.buf)) }

// Recent copies the newest n retained entries, oldest first.
func (l *DecisionLog) Recent(n int) []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := uint64(len(l.buf))
	keep := min(l.next, size, uint64(max(n, 0)))
	out := make([]LogEntry, 0, keep)
	for j := l.next - keep; j < l.next; j++ {
		out = append(out, l.buf[j%size])
	}
	return out
}

package core

import (
	"sync"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
)

// LogEntry records one authorisation. Seq numbers the log's appends from 1.
type LogEntry struct {
	Seq      uint64       `json:"seq"`
	Op       string       `json:"op"`
	DeviceID string       `json:"device_id"`
	Origin   instr.Origin `json:"origin"`
	// ContextAt is the event time of the context the decision was judged
	// against; zero when there was none.
	ContextAt time.Time `json:"context_at"`
	Decision  Decision  `json:"decision"`
}

// logCell is one stored ring slot: a LogEntry without its Seq (the slot's
// append index) and with the time and origin packed. Every fleet home
// allocates a ring of these, so the cell's size is fleet memory; see
// TestLogCellSize.
type logCell struct {
	op, deviceID, reason, explanation string
	model                             dataset.Model
	at                                int64 // ContextAt as UnixNano; 0 = none
	allowed, sensitive                bool
	origin                            uint8
}

// DecisionLog is a fixed-capacity ring of authorisation records: the
// framework's log and each fleet home's audit tail. It never blocks and
// never grows; the only way it drops is by overwriting its oldest entry,
// which the optional eviction counter makes visible.
type DecisionLog struct {
	mu   sync.Mutex
	buf  []logCell // ring storage, len == capacity
	next uint64    // entries ever appended

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
	return &DecisionLog{buf: make([]logCell, capacity), appends: appends, evictions: evictions}
}

// Append records one decision judged against context stamped at (zero when
// there was none), giving it the next sequence number.
//
//iot:hotpath
func (l *DecisionLog) Append(in instr.Instruction, dec Decision, at time.Time) {
	c := logCell{
		op: in.Op, deviceID: in.DeviceID, reason: dec.Reason, explanation: dec.Explanation,
		model: dec.Model, allowed: dec.Allowed, sensitive: dec.Sensitive, origin: uint8(in.Origin),
	}
	if !at.IsZero() {
		c.at = at.UnixNano()
	}
	l.mu.Lock()
	evicted := l.next >= uint64(len(l.buf))
	l.buf[l.next%uint64(len(l.buf))] = c
	l.next++
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
		c := &l.buf[j%size]
		e := LogEntry{
			Seq: j + 1, Op: c.op, DeviceID: c.deviceID, Origin: instr.Origin(c.origin),
			Decision: Decision{
				Allowed: c.allowed, Sensitive: c.sensitive, Model: c.model,
				Reason: c.reason, Explanation: c.explanation,
			},
		}
		if c.at != 0 {
			e.ContextAt = time.Unix(0, c.at).UTC()
		}
		out = append(out, e)
	}
	return out
}

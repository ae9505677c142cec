package bridge

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"iotsid/internal/epoch"
	"iotsid/internal/miio"
	"iotsid/internal/smartthings"
)

// DevModeFeed turns the gateway's developer-mode report stream into epoch
// store pushes — the Xiaomi half of event-driven collection. It owns no
// goroutine and no timer: the caller drives it, either per report
// (HandleReport) or by draining a listener's buffered channel (Drain), so
// scheduling stays in the caller's hands and seeded runs stay
// deterministic.
type DevModeFeed struct {
	store  *epoch.Store
	source string
	now    func() time.Time
}

// NewDevModeFeed binds a feed pushing into the named store source. Now
// stamps decoded deltas (it must tick the store's timeline); nil defaults
// to time.Now.
func NewDevModeFeed(store *epoch.Store, source string, now func() time.Time) (*DevModeFeed, error) {
	if store == nil || source == "" {
		return nil, fmt.Errorf("bridge: devmode feed needs a store and a source name")
	}
	if now == nil {
		now = time.Now
	}
	return &DevModeFeed{store: store, source: source, now: now}, nil
}

// HandleReport decodes one report (change or heartbeat) and pushes its
// delta. A heartbeat with an empty payload still pushes an empty delta —
// the store treats it as a liveness refresh.
func (f *DevModeFeed) HandleReport(r miio.Report) error {
	var raw map[string]any
	if err := json.Unmarshal(r.Data, &raw); err != nil {
		return fmt.Errorf("bridge: feed report %s/%s: %w", r.Model, r.SID, err)
	}
	snap, n, err := DecodeReportAll(raw, f.now())
	if err != nil {
		return fmt.Errorf("bridge: feed report %s/%s: %w", r.Model, r.SID, err)
	}
	if n == 0 && r.Cmd != "heartbeat" {
		return nil // change report for properties we don't know: not a liveness signal
	}
	return f.store.Push(f.source, snap)
}

// Drain consumes every report currently buffered on the channel without
// blocking and returns how many were pushed. The first broken report
// aborts the drain with its error; a closed channel just ends it.
func (f *DevModeFeed) Drain(reports <-chan miio.Report) (int, error) {
	pushed := 0
	for {
		select {
		case r, ok := <-reports:
			if !ok {
				return pushed, nil
			}
			if err := f.HandleReport(r); err != nil {
				return pushed, err
			}
			pushed++
		default:
			return pushed, nil
		}
	}
}

// STPoller adapts the poll-only SmartThings surface to the push world:
// each Poll fetches the bridge's entity states once, folds them into a
// canonical snapshot and pushes it as one delta. Like DevModeFeed it owns
// no timer — the caller decides the cadence, which doubles as the source's
// push interval against its FreshFor budget.
type STPoller struct {
	client *smartthings.Client
	store  *epoch.Store
	source string
}

// NewSTPoller binds a poller pushing into the named store source.
func NewSTPoller(client *smartthings.Client, store *epoch.Store, source string) (*STPoller, error) {
	if client == nil || store == nil || source == "" {
		return nil, fmt.Errorf("bridge: st poller needs a client, a store and a source name")
	}
	return &STPoller{client: client, store: store, source: source}, nil
}

// Poll performs one fetch-decode-push round trip and returns how many
// features the pushed delta carried.
func (p *STPoller) Poll(ctx context.Context) (int, error) {
	entities, err := p.client.States(ctx)
	if err != nil {
		return 0, fmt.Errorf("bridge: st poll: %w", err)
	}
	snap, err := STDecodeStates(entities)
	if err != nil {
		return 0, fmt.Errorf("bridge: st poll: %w", err)
	}
	if err := p.store.Push(p.source, snap); err != nil {
		return 0, err
	}
	return snap.Len(), nil
}

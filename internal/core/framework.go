package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
)

// Framework is the assembled IDS of Fig 3: detector → collector → feature
// memory → determiner. It exposes the two integration surfaces the rest of
// the system uses: Authorize (collect live context, then judge) and Gate /
// Interceptor adapters for the vendor bridges and the automation engine.
type Framework struct {
	detector  *Detector
	collector Collector
	memory    *FeatureMemory
	verdict   *VerdictStage

	log     *DecisionLog
	metrics *frameworkMetrics
	now     func() time.Time

	// Sequence judge (second detection axis): trained transition tables
	// plus this home's bounded event-history ring. nil seq disables the
	// axis entirely — the static tree stands alone.
	seq      *seq.Set
	seqTrack seq.Tracker
}

// Config wires a framework.
type Config struct {
	Detector  *Detector
	Collector Collector
	Memory    *FeatureMemory
	// LogCapacity bounds the decision log's ring buffer; 0 means the
	// default (4096 entries). The log retains exactly the newest
	// LogCapacity entries.
	LogCapacity int
	// Metrics, when non-nil, instruments the framework: decision counts by
	// outcome and sensitivity, Authorize latency, and decision-log
	// append/eviction counts. Every series is pre-registered here, so the
	// hot path stays allocation-free.
	Metrics *obs.Registry
	// Now is the latency clock (injectable so histogram tests are
	// deterministic); defaults to time.Now.
	Now func() time.Time
	// Sequence, when non-nil, arms the temporal sequence judge: every
	// decision is folded into a bounded per-framework history ring, and a
	// sensitive instruction must pass BOTH the compiled tree and the
	// sequence judge (fail closed on anomaly).
	Sequence *seq.Set
}

// New assembles the framework.
func New(cfg Config) (*Framework, error) {
	if cfg.Collector == nil {
		return nil, fmt.Errorf("core: framework needs a collector")
	}
	// A nil *FeatureMemory must stay a nil ModelStore, not a typed-nil
	// interface, so NewJudger's validation still fires.
	var store ModelStore
	if cfg.Memory != nil {
		store = cfg.Memory
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	var seqAnoms, appends, evictions *obs.Counter
	if reg := cfg.Metrics; reg != nil {
		seqAnoms = reg.NewCounter(metricSeqAnomalies,
			"Sensitive instructions rejected by the sequence judge after the static tree allowed them.")
		appends = reg.NewCounter(metricLogAppends,
			"Entries appended to the authorization decision log.")
		evictions = reg.NewCounter(metricLogEvictions,
			"Oldest entries overwritten (dropped) by the decision log's bounded ring.")
	}
	v, err := NewVerdictStage(cfg.Detector, store, cfg.Now, seqAnoms)
	if err != nil {
		return nil, err
	}
	return &Framework{
		detector:  cfg.Detector,
		collector: cfg.Collector,
		memory:    cfg.Memory,
		verdict:   v,
		log:       NewDecisionLog(cfg.LogCapacity, appends, evictions),
		metrics:   newFrameworkMetrics(cfg.Metrics),
		now:       cfg.Now,
		seq:       cfg.Sequence,
	}, nil
}

// Memory exposes the trained feature memory.
func (f *Framework) Memory() *FeatureMemory { return f.memory }

// Detector exposes the sensitive command detector.
func (f *Framework) Detector() *Detector { return f.detector }

// Authorize collects the live sensor context and judges the instruction —
// the full runtime path of Fig 3. The context bounds the collection round
// trip.
//
// Degraded mode: when the collector reports per-source provenance (a
// DetailedCollector, e.g. MultiCollector) and a required source is missing
// (or beyond its staleness budget) or below its trust threshold, sensitive
// instructions fail closed with an explicit rejection while non-sensitive
// instructions still judge against the partial context — the explicit
// choice between bounded staleness and failing closed, never crashing open.
//
//iot:hotpath
//iot:failclosed
func (f *Framework) Authorize(ctx context.Context, in instr.Instruction) (Decision, error) {
	start := f.now()
	snap, prov, err := f.collect(ctx)
	if err != nil {
		//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
		return Decision{}, fmt.Errorf("core: collect context: %w", err)
	}
	why, missing := failReason(prov) //iot:allow hotcall the provenance scans allocate only on a degraded context; a healthy one yields nil lists
	//iot:allow hotcall decide builds the missing-source explanation only on a degraded context; a healthy one appends a fixed-size log cell
	dec, err := f.decide(in, snap, why, missing)
	if err == nil {
		f.metrics.observeLatency(f.now().Sub(start))
	}
	return dec, err
}

// collect prefers the provenance-reporting path when the collector offers
// it.
func (f *Framework) collect(ctx context.Context) (sensor.Snapshot, Provenance, error) {
	if dc, ok := f.collector.(DetailedCollector); ok {
		return dc.CollectDetailed(ctx)
	}
	snap, err := f.collector.Collect(ctx)
	return snap, nil, err
}

// failReason maps collector provenance onto the fail-closed table: a
// required source that contributed nothing outranks one below its trust
// threshold. missing lists the absent sources for the rejection's
// explanation.
func failReason(prov Provenance) (why FailReason, missing []string) {
	if missing = prov.MissingRequired(); len(missing) > 0 {
		return ReasonMissing, missing
	}
	if len(prov.LowTrustRequired()) > 0 {
		return ReasonLowTrust, nil
	}
	return FailReason{}, nil
}

// Judge decides against a caller-supplied context (used when the caller
// already holds the snapshot, e.g. the automation engine's evaluation
// context).
func (f *Framework) Judge(in instr.Instruction, ctx sensor.Snapshot) (Decision, error) {
	return f.decide(in, ctx, FailReason{}, nil)
}

// decide runs the shared verdict stage, then counts and logs the decision.
// A fail-closed rejection is a logged decision, not an error: the caller
// gets a definitive "no".
//
//iot:failclosed
func (f *Framework) decide(in instr.Instruction, snap sensor.Snapshot, why FailReason, missing []string) (Decision, error) {
	dec, outcome, err := f.verdict.Decide(in, snap, why, f.seq, &f.seqTrack)
	if err != nil {
		return Decision{}, err
	}
	if outcome == OutcomeFailClosed && len(missing) > 0 {
		dec.Explanation = in.Op + " blocked; missing required source(s): " + strings.Join(missing, ", ")
	}
	f.metrics.observeDecision(outcome, dec.Sensitive)
	f.log.Append(in, dec, snap.At)
	return dec, nil
}

// SeqAnomalies reports how many sensitive instructions the sequence judge
// rejected after the static tree allowed them.
func (f *Framework) SeqAnomalies() uint64 { return f.verdict.SeqAnomalies() }

// Log returns a copy of the retained authorisation log, oldest first. The
// log is a bounded ring: once more decisions have been made than the
// configured capacity, only the newest survive.
func (f *Framework) Log() []LogEntry {
	return f.log.Snapshot()
}

// LogRecent returns the newest n retained entries, oldest first — the
// cheap way to peek at recent traffic without copying the whole ring.
func (f *Framework) LogRecent(n int) []LogEntry {
	return f.log.Recent(n)
}

// Gate adapts the framework to the vendor bridges' gate signature: a
// non-nil error blocks execution.
func (f *Framework) Gate(in instr.Instruction, ctx sensor.Snapshot) error {
	dec, err := f.Judge(in, ctx)
	if err != nil {
		return err
	}
	if !dec.Allowed {
		return fmt.Errorf("ids: %s", dec.Reason)
	}
	return nil
}

// Interceptor adapts the framework to the automation engine. Judgment
// errors fail closed for sensitive instructions: an unjudgeable sensitive
// command must not run.
func (f *Framework) Interceptor() func(in instr.Instruction, ctx sensor.Snapshot) (bool, string) {
	return func(in instr.Instruction, ctx sensor.Snapshot) (bool, string) {
		dec, err := f.Judge(in, ctx)
		if err != nil {
			if f.detector.IsSensitive(in) {
				return false, fmt.Sprintf("ids: cannot judge sensitive instruction: %v", err)
			}
			return true, fmt.Sprintf("ids: judgment unavailable (%v); non-sensitive instruction allowed", err)
		}
		return dec.Allowed, dec.Reason
	}
}

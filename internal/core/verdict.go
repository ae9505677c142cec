package core

import (
	"sync/atomic"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
)

// FailReason says why a pipeline cannot trust its context. The zero value
// means the context is healthy; any other value fails a sensitive
// instruction closed, and the rejection carries the reason's text.
type FailReason struct{ text string }

// The fail-closed reason table. Every pipeline rejects with one of these
// fixed (interned) strings, so the degraded path stays allocation-free and
// the decision stream deterministic.
var (
	// ReasonMissing: a required collector source contributed nothing.
	ReasonMissing = FailReason{"sensitive instruction rejected (fail closed): required sensor source(s) unavailable"}
	// ReasonLowTrust: the context is fresh, but a required source sits
	// below its trust threshold — fabricated context is the sensor-spoofing
	// twin of no context at all.
	ReasonLowTrust = FailReason{"sensitive instruction rejected (fail closed): required sensor source(s) below trust threshold"}
	// ReasonNoContext: a fleet home has pushed no context yet.
	ReasonNoContext = FailReason{"sensitive instruction rejected (fail closed): home has pushed no sensor context"}
	// ReasonStale: a fleet home's context is beyond its freshness budget.
	ReasonStale = FailReason{"sensitive instruction rejected (fail closed): home sensor context is beyond its freshness budget"}
	// ReasonSeqAnomaly: the sequence judge revoked an allow the tree gave.
	ReasonSeqAnomaly = FailReason{"sensitive instruction rejected (fail closed): instruction sequence outside trained temporal profile"}
)

// Degraded reports whether the reason fails sensitive instructions closed.
func (r FailReason) Degraded() bool { return r.text != "" }

// String returns the reason text a rejected Decision carries.
func (r FailReason) String() string { return r.text }

// Outcome classifies a decision for the metrics layers; its String is the
// outcome label value of every decision counter family.
type Outcome uint8

// Decision outcomes.
const (
	OutcomeAllow Outcome = iota
	OutcomeReject
	OutcomeFailClosed
	OutcomeCount // number of outcomes; sizes the pre-registered counter arrays
)

var outcomeNames = [OutcomeCount]string{"allow", "reject", "fail_closed"}

// String returns the outcome's metric label value.
func (o Outcome) String() string { return outcomeNames[o] }

// VerdictStage is the command determiner's one verdict (§IV-D), shared by
// Framework and the multi-tenant fleet: fail closed on untrusted context,
// otherwise judge with the context tree and let the sequence judge revoke.
// Callers keep only what is theirs — how context is obtained, and where
// decisions are logged and counted.
type VerdictStage struct {
	judger    *Judger
	now       func() time.Time
	seqAnoms  atomic.Uint64
	seqMetric *obs.Counter // nil when uninstrumented
}

// NewVerdictStage wires the stage over a model store. now stamps sequence
// events whose snapshot carries no time; seqAnomalies, when non-nil, counts
// sequence revocations.
func NewVerdictStage(d *Detector, store ModelStore, now func() time.Time, seqAnomalies *obs.Counter) (*VerdictStage, error) {
	j, err := NewJudger(d, store)
	if err != nil {
		return nil, err
	}
	return &VerdictStage{judger: j, now: now, seqMetric: seqAnomalies}, nil
}

// Decide judges one instruction against snap. A degraded why fails a
// sensitive instruction closed before the tree or the sequence history is
// consulted; a non-sensitive one is still judged on snap. With set
// non-nil, every judged event extends the history in tr, and the sequence
// judge can revoke an allow, never grant one.
//
//iot:hotpath
//iot:failclosed
func (s *VerdictStage) Decide(in instr.Instruction, snap *sensor.Snapshot, why FailReason, set *seq.Set, tr *seq.Tracker) (Decision, Outcome, error) {
	if why.Degraded() && s.judger.detector.IsSensitive(in) {
		return Decision{Allowed: false, Sensitive: true, Reason: why.text}, OutcomeFailClosed, nil
	}
	dec, err := s.judger.Judge(in, snap)
	if err != nil {
		return Decision{}, OutcomeReject, err
	}
	if set != nil {
		at := snap.At
		if at.IsZero() {
			at = s.now()
		}
		if v := set.ObserveJudge(tr, dec.Model, dec.Sensitive, dec.Allowed, *snap, at); v.Anomalous {
			s.seqAnoms.Add(1)
			s.seqMetric.Inc()
			return Decision{Allowed: false, Sensitive: true, Model: dec.Model, Reason: ReasonSeqAnomaly.text}, OutcomeReject, nil
		}
	}
	if dec.Allowed {
		return dec, OutcomeAllow, nil
	}
	return dec, OutcomeReject, nil
}

// SeqAnomalies reports how many sensitive instructions the sequence judge
// rejected after the static tree allowed them.
func (s *VerdictStage) SeqAnomalies() uint64 { return s.seqAnoms.Load() }

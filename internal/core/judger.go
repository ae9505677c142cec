package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

// Decision is the command determiner's verdict on one instruction.
type Decision struct {
	Allowed   bool          `json:"allowed"`
	Sensitive bool          `json:"sensitive"`
	Model     dataset.Model `json:"model,omitempty"`
	Reason    string        `json:"reason"`
	// Explanation is the decision path the context tree took — which
	// sensor conditions were tested and how they resolved.
	Explanation string `json:"explanation,omitempty"`
}

// opReasons holds the interned reason strings for one opcode. The judge
// hot path returns Decisions by value; before interning, the fmt.Sprintf
// building each Reason was the last allocation on the Authorize fast path.
// Opcodes come from the instruction registry, so the table's cardinality
// is bounded; reasonCap is a backstop against a caller judging raw,
// unregistered input.
type opReasons struct {
	notSensitive string
	allowed      string
	rejected     string
}

// reasonCap bounds the interning table; past it, reasons fall back to
// fmt.Sprintf (correct, just no longer allocation-free).
const reasonCap = 4096

// ModelStore is the judger's view of wherever the trained per-device-model
// entries live. Two implementations exist: the single-home FeatureMemory
// (RWMutex over its entry map) and the fleet's copy-on-write ModelRegistry
// (one atomic load, shared by every tenant). Judge must be safe for
// concurrent use and allocation-free on the steady-state path.
type ModelStore interface {
	// Judge runs the model's compiled tree on a live snapshot: true means
	// the context matches a legal activity scene.
	Judge(m dataset.Model, ctx sensor.Snapshot) (bool, error)
	// JudgeExplain also returns the decision path the tree took.
	JudgeExplain(m dataset.Model, ctx sensor.Snapshot) (bool, string, error)
}

// Judger is the command determiner (§IV-D): sensitive instructions are
// allowed only when the trained context model confirms the live sensor
// snapshot matches a legal activity scene.
type Judger struct {
	detector *Detector
	memory   ModelStore

	// Reason interning: copy-on-write maps read via one atomic load on the
	// hot path; the mutex only serialises writers on first sight of an op
	// or category.
	mu         sync.Mutex
	reasons    atomic.Pointer[map[string]*opReasons]
	outOfScope atomic.Pointer[map[instr.Category]string]
}

// NewJudger wires the determiner over any model store — the single-home
// FeatureMemory or the fleet's shared registry.
func NewJudger(d *Detector, store ModelStore) (*Judger, error) {
	if d == nil {
		return nil, fmt.Errorf("core: judger needs a detector")
	}
	if store == nil {
		return nil, fmt.Errorf("core: judger needs a model store")
	}
	return &Judger{detector: d, memory: store}, nil
}

// reasonsFor interns the per-op reason strings on first sight and serves
// them allocation-free afterwards.
func (j *Judger) reasonsFor(op string) *opReasons {
	if m := j.reasons.Load(); m != nil {
		if r, ok := (*m)[op]; ok {
			return r
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	cur := j.reasons.Load()
	if cur != nil {
		if r, ok := (*cur)[op]; ok {
			return r
		}
	}
	r := &opReasons{
		notSensitive: fmt.Sprintf("%s is not a sensitive instruction", op),
		allowed:      fmt.Sprintf("%s allowed: sensor context matches a legal activity scene", op),
		rejected:     fmt.Sprintf("%s rejected: sensor context does not match a legal activity scene", op),
	}
	var n int
	if cur != nil {
		n = len(*cur)
	}
	if n >= reasonCap {
		return r // table full: serve without storing
	}
	next := make(map[string]*opReasons, n+1)
	if cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[op] = r
	j.reasons.Store(&next)
	return r
}

// outOfScopeReason interns the per-category out-of-scope reason.
func (j *Judger) outOfScopeReason(c instr.Category) string {
	if m := j.outOfScope.Load(); m != nil {
		if r, ok := (*m)[c]; ok {
			return r
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	cur := j.outOfScope.Load()
	if cur != nil {
		if r, ok := (*cur)[c]; ok {
			return r
		}
	}
	r := fmt.Sprintf("category %s is outside the context-model scope", c)
	var n int
	if cur != nil {
		n = len(*cur)
	}
	next := make(map[instr.Category]string, n+1)
	if cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[c] = r
	j.outOfScope.Store(&next)
	return r
}

// Judge decides one instruction against a sensor context. The steady-state
// allow path allocates nothing: reasons are interned per opcode, the
// feature vector is pooled, and the compiled tree walks a flat node slice.
//
//iot:hotpath
//iot:failclosed
func (j *Judger) Judge(in instr.Instruction, ctx *sensor.Snapshot) (Decision, error) {
	if !j.detector.IsSensitive(in) {
		return Decision{
			Allowed: true,
			Reason:  j.reasonsFor(in.Op).notSensitive, //iot:allow hotcall reasons intern once per opcode; steady state is a lock-free map hit
		}, nil
	}
	m, ok := dataset.ModelForCategory(in.Category)
	if !ok {
		// Sensitive categories outside the evaluated six (alarms are
		// triggers, cameras get the warning linkage, locks guard
		// themselves — §V's Door/Alarm/Camera discussion).
		return Decision{
			Allowed:   true,
			Sensitive: true,
			Reason:    j.outOfScopeReason(in.Category), //iot:allow hotcall out-of-scope reasons intern once per category; steady state is a lock-free map hit //iot:allow failclosed the call returns the per-category interned string, never a fresh one
		}, nil
	}
	// Fast path: the compiled tree answers allow/deny without allocating.
	// Only an interception pays for the explaining walk — that is the
	// decision a user actually reads.
	legal, err := j.memory.Judge(m, *ctx)
	if err != nil {
		return Decision{}, err
	}
	if !legal {
		_, explanation, err := j.memory.JudgeExplain(m, *ctx)
		if err != nil {
			return Decision{}, err
		}
		return Decision{
			Allowed:     false,
			Sensitive:   true,
			Model:       m,
			Reason:      j.reasonsFor(in.Op).rejected, //iot:allow hotcall reasons intern once per opcode; steady state is a lock-free map hit
			Explanation: explanation,
		}, nil
	}
	return Decision{
		Allowed:   true,
		Sensitive: true,
		Model:     m,
		Reason:    j.reasonsFor(in.Op).allowed, //iot:allow hotcall reasons intern once per opcode; steady state is a lock-free map hit
	}, nil
}

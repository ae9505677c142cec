package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"iotsid/internal/bridge"
	"iotsid/internal/cloud"
	"iotsid/internal/dataset"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
	"iotsid/internal/trust"
)

// replayer drives a workload's digest prefix through the public entry
// points of an in-process deployment, in the order the HTTP handlers call
// them, timing each call as a span. Layers the program reaches only from
// inside another are timed on the same inputs through their own public
// functions, against shadow state (a second fleet, per-home trust engines
// and sequence trackers fed the same stream) so the measured deployment's
// decisions are untouched; the shadow's verdicts are checked against the
// real ones.
type replayer struct {
	tr      *tracer
	st      *stack
	dg      *digest
	ctx     context.Context
	shadow  *fleet.Fleet
	engines []*trust.Engine
	tracks  []seq.Tracker
	seqSet  *seq.Set
	last    []sensor.Snapshot // newest pushed snapshot per home
	norm    *sensor.Normalizer
	props   []string

	requests, items int
	reqBytes        int
	respBytes       int
	batches         int
	activeShards    int
	decisions       int
	failClosed      int
	miioFailed      int
	stFailed        int
}

func newReplayer(spec serverSpec, homes int, traceOn bool) (*replayer, error) {
	st, err := newStack(spec)
	if err != nil {
		return nil, err
	}
	r := &replayer{tr: newTracer(traceOn), st: st, ctx: context.Background(), dg: newDigest(homes)}
	if st.fleet != nil {
		if r.shadow, err = newFleet(spec, st.detector, st.models, nil); err != nil {
			_ = st.close()
			return nil, err
		}
		r.last = make([]sensor.Snapshot, spec.Homes)
	}
	if spec.Armed {
		r.engines = make([]*trust.Engine, spec.Homes)
		for i := range r.engines {
			if r.engines[i], err = newTrustEngine(); err != nil {
				_ = st.close()
				return nil, err
			}
		}
		r.tracks = make([]seq.Tracker, spec.Homes)
		if r.seqSet, err = trainSeq(); err != nil {
			_ = st.close()
			return nil, err
		}
	}
	if st.collector != nil {
		r.norm = bridge.XiaomiNormalizer()
		r.props = bridge.XiaomiPropNames()
	}
	return r, nil
}

func (r *replayer) close() error { return r.st.close() }

func homeIndex(id string) int {
	i, _ := strconv.Atoi(strings.TrimPrefix(id, "home-"))
	return i
}

// decodeContexts times sensor.Snapshot decoding of each raw context as a
// nested span of the request decode.
func (r *replayer) decodeContexts(req, parent int, raws []json.RawMessage) error {
	sw := stopwatch{on: r.tr.on}
	for _, raw := range raws {
		if len(raw) == 0 || string(raw) == "null" {
			continue
		}
		var s sensor.Snapshot
		sw.start()
		err := s.UnmarshalJSON(raw)
		sw.stop()
		if err != nil {
			return err
		}
	}
	r.tr.nestedSpan(req, parent, "sensor.snapshot_decode", sw.total, sw.n)
	return nil
}

// encode times the response encode the handler performs.
func (r *replayer) encode(req, root int, n int, v any) error {
	sp := r.tr.begin(req, root, "cloud.encode", n)
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	r.tr.end(sp)
	r.respBytes += buf.Len()
	return err
}

// authorize replays one /v1/fleet/authorize request.
func (r *replayer) authorize(req int, q *request) error {
	n := len(q.items)
	root := r.tr.begin(req, -1, "request", n)
	defer r.tr.end(root)
	r.requests++
	r.items += n
	r.reqBytes += len(q.body)

	sp := r.tr.begin(req, root, "cloud.decode", n)
	var in fleetBatch
	err := json.Unmarshal(q.body, &in)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	var raw struct {
		Items []struct {
			Context json.RawMessage `json:"context"`
		} `json:"items"`
	}
	if err := json.Unmarshal(q.body, &raw); err != nil {
		return err
	}
	raws := make([]json.RawMessage, len(raw.Items))
	for k := range raw.Items {
		raws[k] = raw.Items[k].Context
	}
	if err := r.decodeContexts(req, sp, raws); err != nil {
		return err
	}

	sp = r.tr.begin(req, root, "instr.build", n)
	items := make([]fleet.BatchItem, 0, n)
	var buildErr error
	for _, it := range in.Items {
		ins, err := r.st.registry.Build(it.Op, it.DeviceID, instr.OriginUser, it.Args)
		if err != nil && buildErr == nil {
			buildErr = err
		}
		items = append(items, fleet.BatchItem{Home: it.Home, In: ins, Context: it.Context})
	}
	r.tr.end(sp)
	if buildErr != nil {
		return buildErr
	}

	before, err := r.shardCounts()
	if err != nil {
		return err
	}
	sp = r.tr.begin(req, root, "fleet.batch", n)
	out, err := r.st.fleet.AuthorizeBatch(r.ctx, items, 0)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	after, err := r.shardCounts()
	if err != nil {
		return err
	}
	r.batches++
	for s := range after.decided {
		if after.decided[s] != before.decided[s] {
			r.activeShards++
		}
	}
	r.decisions += n
	r.failClosed += after.failClosed - before.failClosed

	if err := r.shadowAuthorize(req, sp, items, out); err != nil {
		return err
	}

	results := make([]cloud.FleetResult, n)
	for k, res := range out {
		if res.Err != "" {
			return fmt.Errorf("item %d of %s: %s", k, items[k].Home, res.Err)
		}
		d := res.Decision
		results[k] = cloud.FleetResult{Allowed: d.Allowed, Sensitive: d.Sensitive, Model: string(d.Model), Reason: d.Reason}
		r.dg.fold(int(q.items[k].home), d.Allowed, d.Sensitive)
	}
	return r.encode(req, root, n, struct {
		Results []cloud.FleetResult `json:"results"`
	}{results})
}

// shadowAuthorize times the layers fleet.AuthorizeBatch reaches from
// inside — per-item fleet.Fleet.Authorize (after fleet.Fleet.PushContext of
// any inline context), fleet.ModelRegistry.Judge and, on armed homes,
// seq.Set.ObserveJudge — on the shadow state, and checks the shadow agrees
// with the real decisions.
func (r *replayer) shadowAuthorize(req, parent int, items []fleet.BatchItem, out []fleet.BatchResult) error {
	push, auth, judge, seqw := stopwatch{on: r.tr.on}, stopwatch{on: r.tr.on}, stopwatch{on: r.tr.on}, stopwatch{on: r.tr.on}
	for k, it := range items {
		h := homeIndex(it.Home)
		if it.Context != nil {
			push.start()
			err := r.shadow.PushContext(it.Home, *it.Context)
			push.stop()
			if err != nil {
				return err
			}
			r.last[h] = *it.Context
		}
		auth.start()
		dec, err := r.shadow.Authorize(r.ctx, it.Home, it.In)
		auth.stop()
		if err != nil {
			return err
		}
		real := out[k].Decision
		if dec.Allowed != real.Allowed || dec.Sensitive != real.Sensitive {
			return fmt.Errorf("shadow fleet decided %+v, server path %+v for %s %s", dec, real, it.Home, it.In.Op)
		}
		legal := true
		if real.Sensitive {
			m, ok := dataset.ModelForCategory(it.In.Category)
			if !ok {
				continue
			}
			judge.start()
			legal, err = r.st.models.Judge(m, r.last[h])
			judge.stop()
			if err != nil {
				return err
			}
		}
		if r.seqSet != nil {
			snap := r.last[h]
			model := dataset.Model("")
			if real.Sensitive {
				model = real.Model
			}
			seqw.start()
			v := r.seqSet.ObserveJudge(&r.tracks[h], model, real.Sensitive, legal, snap, snap.At)
			seqw.stop()
			if want := legal && !v.Anomalous; want != real.Allowed {
				return fmt.Errorf("shadow sequence judge: %s %s tree=%t anomalous=%t, server allowed=%t", it.Home, it.In.Op, legal, v.Anomalous, real.Allowed)
			}
		}
	}
	if r.seqSet == nil {
		r.tr.nestedSpan(req, parent, "fleet.push", push.total, push.n)
	}
	r.tr.nestedSpan(req, parent, "fleet.authorize", auth.total, auth.n)
	r.tr.nestedSpan(req, parent, "core.judge", judge.total, judge.n)
	r.tr.nestedSpan(req, parent, "seq.observe", seqw.total, seqw.n)
	return nil
}

// pushes replays one /v1/fleet/context request.
func (r *replayer) pushes(req int, q *request) error {
	n := q.pushes
	root := r.tr.begin(req, -1, "request", n)
	defer r.tr.end(root)
	r.requests++
	r.items += n
	r.reqBytes += len(q.body)

	sp := r.tr.begin(req, root, "cloud.decode", n)
	var in contextBatch
	err := json.Unmarshal(q.body, &in)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	var raw struct {
		Pushes []struct {
			Context json.RawMessage `json:"context"`
		} `json:"pushes"`
	}
	if err := json.Unmarshal(q.body, &raw); err != nil {
		return err
	}
	raws := make([]json.RawMessage, len(raw.Pushes))
	for k := range raw.Pushes {
		raws[k] = raw.Pushes[k].Context
	}
	if err := r.decodeContexts(req, sp, raws); err != nil {
		return err
	}

	sp = r.tr.begin(req, root, "fleet.push", n)
	var pushErr error
	for _, p := range in.Pushes {
		if err := r.st.fleet.PushContext(p.Home, p.Context); err != nil && pushErr == nil {
			pushErr = err
		}
	}
	r.tr.end(sp)
	if pushErr != nil {
		return pushErr
	}
	obs := stopwatch{on: r.tr.on}
	for _, p := range in.Pushes {
		h := homeIndex(p.Home)
		obs.start()
		r.engines[h].Observe("push", p.Context, p.Context.At)
		obs.stop()
		if err := r.shadow.PushContext(p.Home, p.Context); err != nil {
			return err
		}
		r.last[h] = p.Context
	}
	r.tr.nestedSpan(req, sp, "trust.observe", obs.total, obs.n)
	return r.encode(req, root, n, struct {
		Accepted int `json:"accepted"`
	}{n})
}

// command replays one /v1/command request: decode, build, collect the
// context fresh through the MultiCollector (with the vendor calls and the
// normalizer it makes timed beside it), gate, encode.
func (r *replayer) command(req int, q *request) (bool, error) {
	root := r.tr.begin(req, -1, "request", 1)
	defer r.tr.end(root)
	r.requests++
	r.items++
	r.reqBytes += len(q.body)

	sp := r.tr.begin(req, root, "cloud.decode", 1)
	var c commandBody
	err := json.Unmarshal(q.body, &c)
	r.tr.end(sp)
	if err != nil {
		return false, err
	}
	sp = r.tr.begin(req, root, "instr.build", 1)
	in, err := r.st.registry.Build(c.Op, c.DeviceID, instr.OriginUser, nil)
	r.tr.end(sp)
	if err != nil {
		return false, err
	}

	sp = r.tr.begin(req, root, "core.collect", 1)
	snap, err := r.st.collector.Collect(r.ctx)
	r.tr.end(sp)
	if err != nil {
		return false, err
	}
	if err := r.vendorCalls(req, sp); err != nil {
		return false, err
	}

	gp := r.tr.begin(req, root, "core.gate", 1)
	gateErr := r.st.framework.Gate(in, snap)
	r.tr.end(gp)
	r.decisions++
	allowed := gateErr == nil
	var body any = struct {
		Outcome string `json:"outcome"`
	}{cloud.OutcomeForwarded}
	if !allowed {
		body = struct {
			Error string `json:"error"`
		}{gateErr.Error()}
	}
	return allowed, r.encode(req, root, 1, body)
}

// vendorCalls times the calls core.MultiCollector.Collect makes from
// inside: the miio get_prop round trip, the Xiaomi normalizer, and the
// SmartThings state read.
func (r *replayer) vendorCalls(req, parent int) error {
	call, norm, states := stopwatch{on: r.tr.on}, stopwatch{on: r.tr.on}, stopwatch{on: r.tr.on}
	call.start()
	raw, err := r.st.miio.CallContext(r.ctx, "get_prop", r.props)
	call.stop()
	if err != nil {
		r.miioFailed++
	} else {
		var values []any
		if err := json.Unmarshal(raw, &values); err != nil || len(values) != len(r.props) {
			return fmt.Errorf("miio get_prop: %d values for %d props (%v)", len(values), len(r.props), err)
		}
		payload := make(map[string]any, len(values))
		for i, name := range r.props {
			payload[name] = values[i]
		}
		norm.start()
		_, err = r.norm.Normalize(payload, time.Now())
		norm.stop()
		if err != nil {
			return err
		}
	}
	states.start()
	_, err = r.st.st.States(r.ctx)
	states.stop()
	if err != nil {
		r.stFailed++
	}
	r.tr.nestedSpan(req, parent, "miio.call", call.total, call.n)
	r.tr.nestedSpan(req, parent, "sensor.normalize", norm.total, norm.n)
	r.tr.nestedSpan(req, parent, "smartthings.states", states.total, states.n)
	return nil
}

// shardCounters are the fleet's per-shard decision counters, read from
// its metrics exposition.
type shardCounters struct {
	decided    []int
	failClosed int
}

func (r *replayer) shardCounts() (shardCounters, error) {
	var buf bytes.Buffer
	if err := r.st.metrics.WriteText(&buf); err != nil {
		return shardCounters{}, err
	}
	c := shardCounters{decided: make([]int, r.st.fleet.ShardCount())}
	sc := bufio.NewScanner(&buf)
	const prefix = `iotsid_fleet_decisions_total{shard="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		q := strings.IndexByte(rest, '"')
		sp := strings.LastIndexByte(rest, ' ')
		if q < 0 || sp < 0 {
			return shardCounters{}, fmt.Errorf("unparsable metric line %q", line)
		}
		shard, err1 := strconv.Atoi(rest[:q])
		v, err2 := strconv.Atoi(rest[sp+1:])
		if err1 != nil || err2 != nil || shard < 0 || shard >= len(c.decided) {
			return shardCounters{}, fmt.Errorf("unparsable metric line %q", line)
		}
		c.decided[shard] += v
		if strings.Contains(rest, `outcome="fail_closed"`) {
			c.failClosed += v
		}
	}
	return c, sc.Err()
}

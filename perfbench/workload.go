package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"iotsid/internal/cloud"
	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
)

// Workload names; later issues refer to them.
const (
	wlGateway = "fleet-gateway"
	wlCommand = "home-command"
	wlStream  = "fleet-sensor-stream"
)

var workloadNames = []string{wlGateway, wlCommand, wlStream}

// fleet-gateway: cmd/fleetload's stream at its default mix, cut into
// 64-item batches. One pass is gwSteps rounds over every home; the timed
// window repeats the pass in slices of gwSlice requests, and every repeat
// must answer byte for byte as the first did.
const (
	gwHomes     = 10000
	gwShards    = 16
	gwSteps     = 5
	gwBatch     = 64
	gwSensitive = 0.7
	gwAttack    = 0.3
	gwSlice     = 2000
)

// fleet-sensor-stream: every home trust- and sequence-armed, four honest
// context pushes per authorize item. Events are generated a segment at a
// time so the stream's clock only moves forward; the first segment is the
// digest prefix, and chained homes end with its last event.
const (
	streamHomes       = 2048
	streamShards      = 16
	streamBatch       = 64
	streamPushesPer   = 4
	streamSegEvents   = 8
	streamPrefix      = streamSegEvents
	streamChain       = 0.1
	streamSensitive   = 0.35 // seq.LegalTrace's sensitive share
	streamCadence     = 15 * time.Second
	streamCadenceJitt = 0.2
)

// home-command: one home behind both vendor paths, a pool of independent
// single commands replayed open loop at commandRate per second. On a
// 2-core box the closed-loop capacity is about 1.6k commands/s, but it
// swung down by a third or more while other tenants loaded the machine;
// at 800/s such a dip built a backlog (median latency 1 ms → 53 ms), so
// the rate is a quarter of capacity and latency measures service, not
// queueing. A slice is commandSlice commands: enough that every slice's
// p99 has ten samples beyond it.
const (
	commandPool  = 1024
	commandRate  = 400
	commandSlice = 1000
)

// commandOps is the home-command mix: control and status ops on the four
// devices whose categories the context models cover.
var commandOps = []struct{ op, device string }{
	{"window.open", "window-1"}, {"window.close", "window-1"}, {"window.get_state", "window-1"},
	{"light.on", "light-1"}, {"light.off", "light-1"}, {"light.get_state", "light-1"},
	{"aircon.on", "aircon-1"}, {"aircon.off", "aircon-1"},
	{"curtain.open", "curtain-1"}, {"curtain.close", "curtain-1"},
}

// fleetloadOps mirrors cmd/fleetload's device mix: one sensitive control
// op per evaluated device model.
var fleetloadOps = map[dataset.Model]struct{ op, device string }{
	dataset.ModelWindow:  {"window.open", "win-1"},
	dataset.ModelAircon:  {"aircon.on", "ac-1"},
	dataset.ModelLight:   {"light.on", "lamp-1"},
	dataset.ModelCurtain: {"curtain.open", "cur-1"},
	dataset.ModelTV:      {"tv.on", "tv-1"},
	dataset.ModelKitchen: {"cooker.start", "rc-1"},
}

// Endpoints.
const (
	pathAuthorize = "/v1/fleet/authorize"
	pathContext   = "/v1/fleet/context"
	pathCommand   = "/v1/command"
)

// homeID names fleet home i exactly as cmd/fleetload does.
func homeID(i int) string { return fmt.Sprintf("home-%06d", i) }

// serverSpec is everything the server process learns about a workload:
// the generated set-up inputs, never the seed.
type serverSpec struct {
	Workload string `json:"workload"`
	Homes    int    `json:"homes,omitempty"`
	Shards   int    `json:"shards,omitempty"`
	// Armed gives every home a trust engine and the shared sequence judge.
	Armed bool `json:"armed,omitempty"`
	// EnvSeed and Scene set up the home-command home's environment.
	EnvSeed int64            `json:"env_seed,omitempty"`
	Scene   *sensor.Snapshot `json:"scene,omitempty"`
}

// Item flags.
const (
	fContext   uint8 = 1 << iota // carries inline context
	fChainTail                   // same-tick chain tail: must be rejected
)

// itemMeta is what the checker needs to know about one authorize item.
type itemMeta struct {
	home  int32
	flags uint8
}

// request is one pre-encoded HTTP request.
type request struct {
	path   string
	body   []byte
	items  []itemMeta // authorize items, in body order
	pushes int        // context pushes carried (inline or batched)
	cmd    int        // home-command pool index
}

// ops is the number of operations a request carries: decisions plus
// context pushes.
func (r *request) ops() int {
	if r.path == pathCommand {
		return 1
	}
	return len(r.items) + r.pushes
}

type fleetBatch struct {
	Items []cloud.FleetBatchItem `json:"items"`
}

type contextPush struct {
	Home    string          `json:"home"`
	Context sensor.Snapshot `json:"context"`
}

type contextBatch struct {
	Pushes []contextPush `json:"pushes"`
}

type commandBody struct {
	Op       string `json:"op"`
	DeviceID string `json:"device_id"`
}

// batcher accumulates items into pre-encoded authorize requests.
type batcher struct {
	items []cloud.FleetBatchItem
	meta  []itemMeta
	out   []request
}

func (b *batcher) add(it cloud.FleetBatchItem, m itemMeta) {
	b.items = append(b.items, it)
	b.meta = append(b.meta, m)
}

func (b *batcher) flush() error {
	if len(b.items) == 0 {
		return nil
	}
	body, err := json.Marshal(fleetBatch{Items: b.items})
	if err != nil {
		return err
	}
	r := request{path: pathAuthorize, body: body, items: append([]itemMeta(nil), b.meta...)}
	for _, m := range b.meta {
		if m.flags&fContext != 0 {
			r.pushes++
		}
	}
	b.out = append(b.out, r)
	b.items, b.meta = b.items[:0], b.meta[:0]
	return nil
}

// gatewayPass generates one pass of the fleet-gateway stream, split
// across nconn connections: connection w owns homes i ≡ w (mod nconn) and
// walks them exactly like cmd/fleetload's worker w, so every home's
// decisions come in fleetload's order and the digest matches its.
func gatewayPass(seed int64, nconn int) ([][]request, error) {
	models := dataset.Models()
	out := make([][]request, nconn)
	for w := 0; w < nconn; w++ {
		rngs := map[int]*rand.Rand{}
		var b batcher
		for s := 0; s < gwSteps; s++ {
			for i := w; i < gwHomes; i += nconn {
				rng := rngs[i]
				if rng == nil {
					rng = rand.New(rand.NewSource(seed + 9973*int64(i)))
					rngs[i] = rng
				}
				id := homeID(i)
				if rng.Float64() < gwSensitive {
					m := models[rng.Intn(len(models))]
					spec := fleetloadOps[m]
					var snap sensor.Snapshot
					var err error
					if rng.Float64() < gwAttack {
						snap, err = dataset.AttackScene(m, rng)
					} else {
						snap, err = dataset.LegalScene(m, rng)
					}
					if err != nil {
						return nil, err
					}
					b.add(cloud.FleetItem(id, spec.op, spec.device, &snap), itemMeta{home: int32(i), flags: fContext})
				} else {
					b.add(cloud.FleetItem(id, "light.get_state", "lamp-1", nil), itemMeta{home: int32(i)})
				}
				if len(b.items) == gwBatch {
					if err := b.flush(); err != nil {
						return nil, err
					}
				}
			}
			if err := b.flush(); err != nil {
				return nil, err
			}
		}
		out[w] = b.out
	}
	return out, nil
}

// commandScene fixes the home-command home: its environment seed and the
// sensor scene applied to it. It does not vary with the workload seed, so
// every seed judges the same context and differs only in its command
// sequence — the decision mix, and so the work per command, stays the
// same from run to run.
func commandScene() (serverSpec, error) {
	scene, err := dataset.LegalSceneSeeded(dataset.ModelWindow, 11)
	if err != nil {
		return serverSpec{}, err
	}
	return serverSpec{Workload: wlCommand, EnvSeed: 11, Scene: &scene}, nil
}

// commandSetup draws the home-command pool: commandPool independent
// single commands over commandOps.
func commandSetup(seed int64) (serverSpec, []request, error) {
	spec, err := commandScene()
	if err != nil {
		return serverSpec{}, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([]request, commandPool)
	for k := range pool {
		c := commandOps[rng.Intn(len(commandOps))]
		body, err := json.Marshal(commandBody{Op: c.op, DeviceID: c.device})
		if err != nil {
			return serverSpec{}, nil, err
		}
		pool[k] = request{path: pathCommand, body: body, cmd: k}
	}
	return spec, pool, nil
}

// commandDevices are the devices the home-command account owns.
func commandDevices() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range commandOps {
		if !seen[c.device] {
			seen[c.device] = true
			out = append(out, c.device)
		}
	}
	return out
}

// streamHome is one home's generator state in fleet-sensor-stream.
type streamHome struct {
	rng     *rand.Rand
	at      time.Time // event time of the newest push
	start   time.Time
	hour0   float64
	pushes  int
	chained bool
}

// streamGen produces fleet-sensor-stream segments. Each home's pushes
// follow a steady cadence with small jitter and carry seq.TraceEvent
// window scenes (the voice-commanded, occupied, locked branch) whose hour
// advances with the event time, starting from a seeded seq.LegalTrace
// event. The cadence is steady and the booleans are constant because the
// trust engine learns both as the feed's fingerprint: an honest feed with
// seq.LegalTrace's 30 s–2.6 h gaps, or a boolean that flips after the
// baseline, would be scored as a spoof.
type streamGen struct {
	nconn int
	homes []streamHome
	event int // next event index
}

func newStreamGen(seed int64, nconn int) *streamGen {
	g := &streamGen{nconn: nconn, homes: make([]streamHome, streamHomes)}
	for i := range g.homes {
		rng := rand.New(rand.NewSource(seed + 7919*int64(i)))
		first := seq.LegalTrace(rng, 1, seq.TraceHourLo, 13)[0]
		g.homes[i] = streamHome{rng: rng, at: first.At, start: first.At, hour0: first.Hour,
			chained: rng.Float64() < streamChain}
	}
	return g
}

// streamSpec is the server set-up for fleet-sensor-stream.
func streamSpec() serverSpec {
	return serverSpec{Workload: wlStream, Homes: streamHomes, Shards: streamShards, Armed: true}
}

// nextPush advances home h by one cadence step and renders its scene.
func (h *streamHome) nextPush() sensor.Snapshot {
	if h.pushes > 0 {
		jitter := 1 + streamCadenceJitt*(2*h.rng.Float64()-1)
		h.at = h.at.Add(time.Duration(float64(streamCadence) * jitter))
	}
	k := float64(h.pushes)
	h.pushes++
	hour := h.hour0 + h.at.Sub(h.start).Hours()
	snap := seq.TraceEvent{At: h.at, Hour: hour, Voice: true, Occupied: true}.WindowScene()
	snap.Set(sensor.FeatTempIndoor, sensor.Number(22+0.2*math.Sin(k*0.9)))
	snap.Set(sensor.FeatAirQuality, sensor.Number(95+2*math.Cos(k*0.7)))
	return snap
}

// segment generates the next streamSegEvents events as per-connection
// request lists. Per event, a connection sends every owned home's pushes,
// then every owned home's authorize items, so each home's stream stays
// ordered; a chain is kept whole in one request.
func (g *streamGen) segment() ([][]request, error) {
	out := make([][]request, g.nconn)
	for e := g.event; e < g.event+streamSegEvents; e++ {
		for w := 0; w < g.nconn; w++ {
			var pushes []contextPush
			var pushReqs []request
			flushPushes := func() error {
				if len(pushes) == 0 {
					return nil
				}
				body, err := json.Marshal(contextBatch{Pushes: pushes})
				if err != nil {
					return err
				}
				pushReqs = append(pushReqs, request{path: pathContext, body: body, pushes: len(pushes)})
				pushes = pushes[:0]
				return nil
			}
			var b batcher
			for i := w; i < streamHomes; i += g.nconn {
				h := &g.homes[i]
				if h.chained && e >= streamPrefix {
					continue // chained homes end with their chain
				}
				id := homeID(i)
				for k := 0; k < streamPushesPer; k++ {
					pushes = append(pushes, contextPush{Home: id, Context: h.nextPush()})
					if len(pushes) == streamBatch {
						if err := flushPushes(); err != nil {
							return nil, err
						}
					}
				}
				if h.chained && e == streamPrefix-1 {
					// Three status reads and a sensitive tail judged on the
					// same pushed view: a same-tick automation chain.
					if len(b.items)+4 > streamBatch {
						if err := b.flush(); err != nil {
							return nil, err
						}
					}
					for k := 0; k < 3; k++ {
						b.add(cloud.FleetItem(id, "window.get_state", "win-1", nil), itemMeta{home: int32(i)})
					}
					b.add(cloud.FleetItem(id, "window.open", "win-1", nil), itemMeta{home: int32(i), flags: fChainTail})
				} else if h.rng.Float64() < streamSensitive {
					b.add(cloud.FleetItem(id, "window.open", "win-1", nil), itemMeta{home: int32(i)})
				} else {
					b.add(cloud.FleetItem(id, "window.get_state", "win-1", nil), itemMeta{home: int32(i)})
				}
				if len(b.items) >= streamBatch {
					if err := b.flush(); err != nil {
						return nil, err
					}
				}
			}
			if err := flushPushes(); err != nil {
				return nil, err
			}
			if err := b.flush(); err != nil {
				return nil, err
			}
			out[w] = append(out[w], pushReqs...)
			out[w] = append(out[w], b.out...)
		}
	}
	g.event += streamSegEvents
	return out, nil
}

// chainedHomes counts the stream's chained homes.
func (g *streamGen) chainedHomes() int {
	n := 0
	for i := range g.homes {
		if g.homes[i].chained {
			n++
		}
	}
	return n
}

// digest folds per-home decision streams exactly as cmd/fleetload does:
// FNV-64a over an (allowed, sensitive) tag-byte pair per decision, per
// home in decision order, then the per-home sums in home-index order. The
// result depends only on each home's own order, never on how homes are
// spread over connections or batches.
type digest struct{ homes []uint64 }

func newDigest(homes int) *digest {
	d := &digest{homes: make([]uint64, homes)}
	for i := range d.homes {
		d.homes[i] = 14695981039346656037
	}
	return d
}

func (d *digest) fold(home int, allowed, sensitive bool) {
	b0, b1 := byte('d'), byte('n')
	if allowed {
		b0 = 'a'
	}
	if sensitive {
		b1 = 's'
	}
	h := d.homes[home]
	h = (h ^ uint64(b0)) * 1099511628211
	h = (h ^ uint64(b1)) * 1099511628211
	d.homes[home] = h
}

func (d *digest) sum() string {
	h := uint64(14695981039346656037)
	for _, x := range d.homes {
		for b := 0; b < 8; b++ {
			h = (h ^ uint64(byte(x>>(8*b)))) * 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

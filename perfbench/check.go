package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"iotsid/internal/cloud"
)

// verdicts decodes and checks raw responses after a timed window and
// folds their decisions into the run's digest.
type verdicts struct {
	dg                      *digest // nil outside the digest prefix
	decisions, allowed      int
	chainTails, unsafeChain int
	falseBlocks             int // honest sensitive items rejected (fleet-sensor-stream)
}

// authorize checks one /v1/fleet/authorize answer: one result per item,
// no per-item error, and no allowed chain tail.
func (v *verdicts) authorize(r *request, resp response) error {
	if resp.err != nil {
		return resp.err
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("authorize: HTTP %d %s", resp.status, resp.body)
	}
	var out struct {
		Results []cloud.FleetResult `json:"results"`
	}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return fmt.Errorf("authorize: decode: %w", err)
	}
	if len(out.Results) != len(r.items) {
		return fmt.Errorf("authorize: %d results for %d items", len(out.Results), len(r.items))
	}
	for k, res := range out.Results {
		m := r.items[k]
		if res.Error != "" {
			return fmt.Errorf("authorize: item %d of %s: %s", k, homeID(int(m.home)), res.Error)
		}
		v.decisions++
		if res.Allowed {
			v.allowed++
		}
		switch {
		case m.flags&fChainTail != 0:
			v.chainTails++
			if res.Allowed {
				v.unsafeChain++
			}
		case res.Sensitive && !res.Allowed:
			v.falseBlocks++
		}
		if v.dg != nil {
			v.dg.fold(int(m.home), res.Allowed, res.Sensitive)
		}
	}
	return nil
}

// push checks one /v1/fleet/context answer: every push accepted.
func (v *verdicts) push(r *request, resp response) error {
	if resp.err != nil {
		return resp.err
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("context: HTTP %d %s", resp.status, resp.body)
	}
	var out struct {
		Accepted int                    `json:"accepted"`
		Errors   []cloud.FleetPushError `json:"errors"`
	}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return fmt.Errorf("context: decode: %w", err)
	}
	if out.Accepted != r.pushes || len(out.Errors) > 0 {
		return fmt.Errorf("context: %d of %d pushes accepted, errors %v", out.Accepted, r.pushes, out.Errors)
	}
	return nil
}

// check dispatches on the request's endpoint.
func (v *verdicts) check(r *request, resp response) error {
	if r.path == pathContext {
		return v.push(r, resp)
	}
	return v.authorize(r, resp)
}

// commandVerdict reads one /v1/command answer: 200 is a forwarded
// (allowed) command, 403 with the gate's "ids: " error an IDS rejection —
// a decision, not a failure. Anything else failed.
func commandVerdict(resp response) (bool, error) {
	if resp.err != nil {
		return false, resp.err
	}
	var body struct {
		Outcome string `json:"outcome"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal(resp.body, &body); err != nil {
		return false, fmt.Errorf("command: HTTP %d, undecodable body %q", resp.status, resp.body)
	}
	switch {
	case resp.status == http.StatusOK && body.Outcome == cloud.OutcomeForwarded:
		return true, nil
	case resp.status == http.StatusForbidden && strings.HasPrefix(body.Error, "ids: "):
		return false, nil
	}
	return false, fmt.Errorf("command: HTTP %d %s", resp.status, resp.body)
}

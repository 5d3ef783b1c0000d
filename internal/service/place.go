package service

import (
	"errors"
	"net/http"

	"asyncmediator/api"
	"asyncmediator/internal/core"
	"asyncmediator/internal/sched"
)

// This file is the placement control plane's service glue: it feeds the
// pure scheduler (internal/sched) from the gossip fleet view, tallies
// its decisions for /metrics, and serves POST /v1/cluster/plan — the
// dry-run that answers the assignment a session create would get,
// without creating anything.

// placeSession resolves one placement:"auto" request against the live
// fleet view. Any caller-supplied peers stay pinned; the scheduler fills
// the remaining players across healthy daemons. On a daemon without a
// fleet plane the whole play degenerates to the coordinator — a valid
// single-daemon placement, not an error.
func (s *Service) placeSession(spec Spec, p core.Params) (sched.Placement, error) {
	pl, _, err := s.schedulePlacement(spec, p)
	s.notePlacement(err)
	return pl, err
}

// schedulePlacement runs the pure scheduler against the live fleet view
// without tallying the decision — the shared core of placeSession (real
// placements, counted) and handleClusterPlan (dry runs, not counted).
// The reported floor is core's bound for the spec's theorem, the one
// Validate already checked.
func (s *Service) schedulePlacement(spec Spec, p core.Params) (sched.Placement, []sched.Daemon, error) {
	var cands []sched.Daemon
	if fv, ok := s.FleetView(); ok {
		cands = sched.Candidates(fv)
	}
	pl, err := sched.Place(sched.Request{
		N:          p.Game.N,
		T:          p.T,
		Strategy:   spec.Placement.Strategy,
		Fixed:      spec.Peers,
		MinDaemons: spec.Placement.MinDaemons,
	}, cands)
	if err == nil {
		pl.Floor = p.Variant.Bound(p.K, p.T)
	}
	return pl, cands, err
}

// notePlacement tallies one scheduler decision for /metrics.
func (s *Service) notePlacement(err error) {
	reason := ""
	switch {
	case err == nil:
	case errors.Is(err, sched.ErrInfeasible):
		reason = "infeasible"
	case errors.Is(err, sched.ErrUnderFloor):
		reason = "under_floor"
	default:
		reason = "error"
	}
	s.placeMu.Lock()
	if reason == "" {
		s.placements++
	} else {
		s.placeRejects[reason]++
	}
	s.placeMu.Unlock()
}

// placementCounts snapshots the placement tallies for /metrics.
func (s *Service) placementCounts() (placed int64, rejects map[string]int64) {
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	rejects = make(map[string]int64, len(s.placeRejects))
	for k, v := range s.placeRejects {
		rejects[k] = v
	}
	return s.placements, rejects
}

// handleClusterPlan answers POST /v1/cluster/plan: validate the spec and
// run the placement scheduler against the current fleet view, exactly as
// POST /v1/sessions would, but create nothing. A plan without an explicit
// placement spec plans as placement:"auto".
func (s *Service) handleClusterPlan(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterPlanRequest
	if e := decodeBody(w, r, &req); e != nil {
		writeAPIError(w, e)
		return
	}
	spec := req.Spec
	if spec.Placement == nil {
		spec.Placement = &api.PlacementSpec{Mode: api.PlacementModeAuto}
	}
	normalizeSpec(&spec)
	params, err := buildParams(spec)
	if err != nil {
		writeAPIError(w, apiError(err, api.CodeInvalidArgument))
		return
	}
	pl, cands, err := s.schedulePlacement(spec, params)
	if err != nil {
		writeAPIError(w, apiError(err, api.CodeInvalidArgument))
		return
	}
	writeJSON(w, http.StatusOK, api.ClusterPlanResponse{
		Placement:      pl,
		HealthyDaemons: sched.UsableCount(cands),
	})
}

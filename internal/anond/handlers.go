package anond

// Endpoint handlers. Compute endpoints share one shape: decode strictly,
// materialize the domain config (failures answer 400 through the shared
// classifier), fingerprint, and run through the single-flight group under
// the request's context. ?stream=1 switches /v1/scenario and
// /v1/degradation to NDJSON: progress lines while the backend runs, then
// one terminal result or error line.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"anonmix/internal/scenario"
)

// decodeRequest strictly decodes a JSON body into v. Unknown fields and
// malformed JSON wrap scenario.ErrBadConfig: a body the daemon cannot
// interpret can never succeed as written.
func decodeRequest(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: request body: %w", scenario.ErrBadConfig, err)
	}
	return nil
}

// answer writes a computed (value, error) pair and reports the status
// for metrics.
func answer(w http.ResponseWriter, val any, err error) int {
	if err != nil {
		status := statusFor(err)
		if status == statusClientClosedRequest {
			// The client is gone; the write below is best-effort and the
			// status feeds only the daemon's own accounting.
			return status
		}
		return writeError(w, status, errorBody(err))
	}
	return writeJSON(w, http.StatusOK, val)
}

// runScenario executes a scenario request through the coalescing group
// (or streams it), shared by the scenario and degradation endpoints.
func (s *Server) runScenario(w http.ResponseWriter, r *http.Request, endpoint string, req *ScenarioRequest) (int, bool) {
	cfg, err := req.config()
	if err != nil {
		return answer(w, nil, err), false
	}
	if r.URL.RawQuery != "" && r.URL.Query().Get("stream") == "1" {
		return s.streamScenario(w, r, cfg), false
	}
	val, err, shared := s.group.do(r.Context(), flightKey{endpoint: endpoint, scenario: *req}, func(ctx context.Context) (any, error) {
		res, err := scenario.RunContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return scenarioResponse(res), nil
	})
	if err == nil && shared {
		resp := *val.(*ScenarioResponse)
		resp.Coalesced = true
		return answer(w, &resp, nil), true
	}
	return answer(w, val, err), shared
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) (int, bool) {
	var req ScenarioRequest
	if err := decodeRequest(r, &req); err != nil {
		return answer(w, nil, err), false
	}
	return s.runScenario(w, r, "scenario", &req)
}

// handleDegradation serves the repeated-communication analysis: the same
// wire form as /v1/scenario, but the workload must actually degrade
// (rounds > 1 or confidence tracking) so the endpoint's contract — a
// response carrying the H_1..H_k curve — holds.
func (s *Server) handleDegradation(w http.ResponseWriter, r *http.Request) (int, bool) {
	var req ScenarioRequest
	if err := decodeRequest(r, &req); err != nil {
		return answer(w, nil, err), false
	}
	if req.Rounds <= 1 && req.Confidence <= 0 && !timelineRounds(req.Timeline) {
		err := fmt.Errorf("%w: /v1/degradation requires rounds > 1, confidence > 0, or a rounds timeline (use /v1/scenario for single-shot runs)", scenario.ErrBadConfig)
		return answer(w, nil, err), false
	}
	return s.runScenario(w, r, "degradation", &req)
}

// timelineRounds reports whether a timeline spec declares per-epoch
// rounds (a degradation timeline). Parse failures answer false here and
// surface properly from config().
func timelineRounds(spec string) bool {
	if spec == "" {
		return false
	}
	timeline, err := scenario.ParseTimeline(spec)
	if err != nil {
		return false
	}
	for _, ep := range timeline {
		if ep.Rounds > 0 {
			return true
		}
	}
	return false
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) (int, bool) {
	var req OptimizeRequest
	if err := decodeRequest(r, &req); err != nil {
		return answer(w, nil, err), false
	}
	// The solvers are not context-aware; the flight still detaches them
	// from any single client so a disconnect never aborts a solve another
	// waiter shares.
	val, err, shared := s.group.do(r.Context(), optimizeFlight(&req), func(context.Context) (any, error) {
		return req.solve()
	})
	if err == nil && shared {
		resp := *val.(*OptimizeResponse)
		resp.Coalesced = true
		return answer(w, &resp, nil), true
	}
	return answer(w, val, err), shared
}

// streamLine is one NDJSON line of a streaming response: exactly one of
// the fields is set, and the stream ends with a result or error line.
type streamLine struct {
	Progress *ProgressLine     `json:"progress,omitempty"`
	Result   *ScenarioResponse `json:"result,omitempty"`
	Error    *ErrorBody        `json:"error,omitempty"`
}

// ProgressLine is a coarse progress report: completed work units out of
// the total, plus the finished epoch's partial result on timeline phase
// boundaries.
type ProgressLine struct {
	Done  int            `json:"done"`
	Total int            `json:"total"`
	Epoch *EpochResponse `json:"epoch,omitempty"`
}

// streamScenario runs cfg with progress streaming. Streaming requests
// bypass the coalescing group — every stream needs its own feed — and
// report HTTP 200 at the first byte; failures after that arrive in-band
// as a terminal error line.
func (s *Server) streamScenario(w http.ResponseWriter, r *http.Request, cfg scenario.Config) int {
	flusher, ok := w.(http.Flusher)
	if !ok {
		err := fmt.Errorf("anond: response writer cannot stream")
		writeError(w, http.StatusInternalServerError, errorBody(err))
		return http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)

	// The backend invokes Progress from worker goroutines and requires it
	// to return quickly; the callback therefore only posts into a buffered
	// channel (dropping when the writer lags — progress is coarse and
	// cumulative, so a dropped line costs nothing) and this handler
	// goroutine owns the connection.
	progress := make(chan scenario.Progress, 64)
	cfg.Progress = func(p scenario.Progress) {
		select {
		case progress <- p:
		default:
		}
	}
	type outcome struct {
		res scenario.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := scenario.RunContext(r.Context(), cfg)
		done <- outcome{res, err}
	}()
	for {
		select {
		case p := <-progress:
			if err := enc.Encode(progressLine(p)); err != nil {
				// Client gone; the backend aborts via r.Context().
				<-done
				return statusClientClosedRequest
			}
			flusher.Flush()
		case out := <-done:
			// Every Progress callback happened before RunContext returned;
			// drain what is still buffered so fast runs (e.g. exact
			// timelines) don't lose their phase lines to the select race.
			for drained := false; !drained; {
				select {
				case p := <-progress:
					if err := enc.Encode(progressLine(p)); err != nil {
						return statusClientClosedRequest
					}
				default:
					drained = true
				}
			}
			status := http.StatusOK
			if out.err != nil {
				status = statusFor(out.err)
				if status == statusClientClosedRequest {
					return status
				}
				body := errorBody(out.err)
				_ = enc.Encode(streamLine{Error: &body})
			} else {
				_ = enc.Encode(streamLine{Result: scenarioResponse(out.res)})
			}
			flusher.Flush()
			return status
		}
	}
}

// progressLine converts a backend progress callback to its stream line.
func progressLine(p scenario.Progress) streamLine {
	line := streamLine{Progress: &ProgressLine{Done: p.Done, Total: p.Total}}
	if p.Epoch != nil {
		line.Progress.Epoch = &EpochResponse{
			Index: p.Epoch.Index, N: p.Epoch.N, C: p.Epoch.C,
			Messages: p.Epoch.Messages, Rounds: p.Epoch.Rounds, H: p.Epoch.H,
		}
	}
	return line
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.snapshot())
}

// HealthResponse is the /v1/health document.
type HealthResponse struct {
	Status string `json:"status"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

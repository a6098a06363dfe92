package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ncap/internal/cluster"
)

// LeaseGrant is the wire form of a job handed to a remote worker
// (POST /v1/lease). Config is the full cluster configuration; the worker
// simulates it locally and posts the result back under the lease ID.
type LeaseGrant struct {
	LeaseID string          `json:"lease_id"`
	Sweep   string          `json:"sweep"`
	Tag     string          `json:"tag"`
	Key     string          `json:"key"`
	TTLNs   int64           `json:"ttl_ns"`
	Config  json.RawMessage `json:"config"`
}

// completeBody is the wire form of a worker's completion report.
type completeBody struct {
	Result cluster.Result `json:"result"`
}

// failBody is the wire form of a worker's failure report.
type failBody struct {
	Error string `json:"error"`
}

// NewMux builds the service's HTTP API:
//
//	POST /v1/sweeps                  submit a sweep (SubmitRequest JSON)
//	GET  /v1/sweeps                  list sweeps
//	GET  /v1/sweeps/{id}             one sweep's status
//	GET  /v1/sweeps/{id}/events      SSE progress stream (?cursor=N resumes)
//	GET  /v1/sweeps/{id}/report      finished ncap-report-v1 document
//	GET  /v1/sweeps/{id}/table       finished human-readable tables
//	POST /v1/lease                   remote worker: acquire a job lease
//	POST /v1/leases/{id}/heartbeat   remote worker: extend a lease
//	POST /v1/leases/{id}/complete    remote worker: deliver a result
//	POST /v1/leases/{id}/fail        remote worker: report a failure
//	GET  /v1/healthz                 liveness
func NewMux(s *Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/sweeps/{id}/table", s.handleTable)
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/leases/{id}/complete", s.handleComplete)
	mux.HandleFunc("POST /v1/leases/{id}/fail", s.handleFail)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeBody strictly decodes a bounded JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("request: trailing data after JSON document")
	}
	return nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := ParseSubmit(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.Submit(req)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a sweep's progress as Server-Sent Events. Each
// event's SSE id is its cursor; a reconnecting client passes ?cursor=N
// (its last seen id) and replay resumes at N+1 with no gaps, because
// cursors are positions in the journal-backed event log, not ephemeral
// connection state. The stream ends when the sweep finishes.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cursor := 0
	if c := r.URL.Query().Get("cursor"); c != "" {
		if _, err := fmt.Sscanf(c, "%d", &cursor); err != nil || cursor < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad cursor %q", c))
			return
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	for {
		evs, notify, done, ok := s.EventsSince(id, cursor)
		if !ok {
			return
		}
		for _, e := range evs {
			blob, _ := json.Marshal(e)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, blob)
			cursor = e.Seq
			if e.Type == "done" || e.Type == "failed" {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		select {
		case <-notify:
		case <-done:
			// Final state reached: loop once more to flush trailing events.
			select {
			case <-notify:
			case <-time.After(10 * time.Millisecond):
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	blob, err := s.Report(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

func (s *Service) handleTable(w http.ResponseWriter, r *http.Request) {
	blob, err := s.Table(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(blob)
}

// handleLease grants a queued job to a remote worker, or 204 when none is
// available. Every job an ncapd submission enumerates is cacheable and
// survives the JSON round trip (pinned by TestServiceJobsSurviveJSON in
// internal/experiments), so any job may go to any worker.
func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Worker string `json:"worker"`
	}
	if err := decodeBody(w, r, &body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if body.Worker == "" {
		body.Worker = "remote"
	}
	t, leaseID := s.disp.next(body.Worker, false)
	if t == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	cfg, err := json.Marshal(t.job.Config)
	if err != nil {
		// Should be unreachable (submissions enumerate only JSON-safe
		// configs); surrender the lease so the job re-dispatches rather
		// than waiting out the TTL.
		_ = s.disp.fail(leaseID, fmt.Sprintf("config serialization: %v", err))
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, LeaseGrant{
		LeaseID: leaseID,
		Sweep:   t.sweepID,
		Tag:     t.job.Tag,
		Key:     t.key,
		TTLNs:   s.opts.LeaseTTL.Nanoseconds(),
		Config:  cfg,
	})
}

func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if s.disp.heartbeat(r.PathValue("id")) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	writeError(w, http.StatusGone, fmt.Errorf("lease expired or unknown"))
}

func (s *Service) handleComplete(w http.ResponseWriter, r *http.Request) {
	var body completeBody
	if err := decodeBody(w, r, &body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.disp.complete(r.PathValue("id"), body.Result); err != nil {
		writeError(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleFail(w http.ResponseWriter, r *http.Request) {
	var body failBody
	if err := decodeBody(w, r, &body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if body.Error == "" {
		body.Error = "worker reported failure"
	}
	if err := s.disp.fail(r.PathValue("id"), body.Error); err != nil {
		writeError(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

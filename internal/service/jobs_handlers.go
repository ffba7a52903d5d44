package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"copernicus/internal/core"
	"copernicus/internal/jobs"
	"copernicus/internal/wire"
)

// handleJobSubmit is POST /v1/jobs/sweep: the asynchronous form of
// /v1/sweep. The request body is identical; the response is 202 with a
// job record to poll (GET /v1/jobs/{id}), subscribe to
// (GET /v1/jobs/{id}/events), or cancel (DELETE /v1/jobs/{id}). A
// completed job populates the same per-backend sweep cache entry the
// synchronous paths use, so a follow-up POST /v1/sweep of the same
// request is a cache hit.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := readSweepRequest(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sel, status, err := s.selectSweep(req)
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	ji, err := s.jobs.Submit(fmt.Sprintf("sweep %s (%s)", sel.info.ID, sel.b.ID()), len(sel.kinds)*len(sel.ps), s.sweepTask(sel))
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeErr(w, http.StatusTooManyRequests, "job queue full; retry later")
		return
	case errors.Is(err, jobs.ErrShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "submit: %v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"job": ji})
}

// sweepTask builds the background task for one sweep job: the same
// computeSweep as the synchronous paths, reporting progress per group,
// then the cache population and the post-insert half of the delete-race
// discipline (sweepEpilogue). Jobs fan out like synchronous sweeps when
// this server fronts a cluster: the job API is never used for
// coordinator-internal dispatch, so there is no loop to guard against.
func (s *Server) sweepTask(sel sweepSel) jobs.Task {
	return func(ctx context.Context, report func(int, jobs.GroupTiming)) (any, error) {
		rs, err := s.computeSweep(ctx, sel, s.execFor(sel.b, false), func(g core.SweepGroup) {
			report(len(g.Results), jobs.GroupTiming{
				Workload: g.Workload,
				P:        g.P,
				Points:   len(g.Results),
				Seconds:  g.Elapsed.Seconds(),
			})
		})
		if err != nil {
			return nil, err
		}
		s.cache.Add(sel.key(), &sweepEntry{results: rs})
		s.noteBackend(sel.b.ID(), false)
		if err := s.sweepEpilogue(sel); err != nil {
			return nil, err
		}
		return rs, nil
	}
}

// handleJobList is GET /v1/jobs: every retained job, submission order.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

// handleJobGet is GET /v1/jobs/{id}: the job record, plus its result
// rows once the job is done.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ji, ok := s.jobs.Result(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	resp := map[string]any{"job": ji}
	if ji.State == jobs.StateDone {
		if rs, ok := res.([]core.Result); ok {
			if wantsColumnar(r) {
				// A finished job's rows as the raw columnar slab; the job
				// record moves to a header. Encoded per request — job
				// results live in the job store, not the sweep LRU.
				body := s.encCol.encode(func() []byte { return wire.Encode(rs) })
				s.writeBody(w, wire.ContentType, &s.encCol, body, func(h http.Header) {
					h.Set(headerJob, ji.ID)
					h.Set(headerRows, strconv.Itoa(len(rs)))
				})
				return
			}
			resp["results"] = toResultsJSON(rs)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobDelete is DELETE /v1/jobs/{id}: cancel an active job (202
// with the post-cancel record — the terminal state lands when the task
// unwinds), or drop a terminal job's record (204).
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if deleted, ok := s.jobs.Delete(id); !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	} else if deleted {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	ji, _ := s.jobs.Cancel(id)
	writeJSON(w, http.StatusAccepted, map[string]any{"job": ji})
}

// handleJobEvents is GET /v1/jobs/{id}/events: a server-sent-events
// stream of progress snapshots — one event immediately (the current
// state), then an event per update with latest-wins coalescing, ending
// with the terminal state. Progress counts are monotone and finish at
// the job's total. The stream also ends when the client disconnects or
// the server drains.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, unsub, ok := s.jobs.Subscribe(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	defer unsub()
	ctx, cancel := s.reqCtx(r)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		select {
		case <-ctx.Done():
			return
		case ji := <-ch:
			blob, err := json.Marshal(ji)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: progress\ndata: %s\n\n", blob); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if ji.State.Terminal() {
				return
			}
		}
	}
}

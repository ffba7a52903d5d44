package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"copernicus/internal/core"
	"copernicus/internal/wire"
)

// This file is the serving hot path's encoding layer: content
// negotiation for the columnar wire format, the encoded-slab cache that
// makes a warm hit a single write of immutable bytes, the pooled
// append-style NDJSON row encoder, and the per-content-type encoding
// counters surfaced on /v1/stats.

// Response headers carrying the envelope metadata that the JSON body
// embeds ("matrix", "cached") when the body itself is a raw columnar
// slab.
const (
	headerMatrix = "X-Copernicus-Matrix"
	headerCached = "X-Copernicus-Cached"
	headerRows   = "X-Copernicus-Rows"
	headerJob    = "X-Copernicus-Job"
	// Advise verdict metadata for columnar advise responses: the chosen
	// format, the full ranking (comma-separated), and the sparsity class.
	headerAdviseFormat  = "X-Copernicus-Advise-Format"
	headerAdviseRanking = "X-Copernicus-Advise-Ranking"
	headerAdviseClass   = "X-Copernicus-Advise-Class"
)

// wantsColumnar reports whether the request negotiated the columnar
// slab body. NDJSON wins when both are listed: streaming delivery is an
// explicit opt-in the columnar batch body cannot honor.
func wantsColumnar(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

// bodyKind indexes a cache entry's pre-encoded response bodies. The
// JSON kinds are split per endpoint shape because a one-point sweep and
// a characterize request share a cache key but answer with different
// envelopes ("results" list vs "result" object).
type bodyKind int

const (
	bodyJSONSweep        bodyKind = iota // /v1/sweep envelope, cached=true
	bodyJSONCharacterize                 // /v1/characterize envelope, cached=true
	bodyColumnar                         // raw wire.Encode slab
	numBodyKinds
)

// sweepEntry is one cached sweep: the result slab plus its lazily
// encoded response bodies. The first warm request of each content type
// pays one encode; every later warm hit writes the stored immutable
// byte slice with zero marshal work and zero per-request allocation.
// Cold responses (cached=false in the envelope) are never stored — only
// the leader of a flight sees one, so the body could never be reused.
type sweepEntry struct {
	results []core.Result

	mu      sync.Mutex
	dropped bool // evicted/invalidated: stop charging resident bytes
	body    [numBodyKinds][]byte
}

// body returns the entry's pre-encoded response of the given kind,
// building (and charging to the server's resident-bytes gauge) on first
// use. build runs outside the entry lock; racing builders may both
// encode, but exactly one result is stored and charged.
func (s *Server) body(e *sweepEntry, k bodyKind, ctr *encCounter, build func() []byte) []byte {
	e.mu.Lock()
	if b := e.body[k]; b != nil {
		e.mu.Unlock()
		return b
	}
	e.mu.Unlock()

	b := ctr.encode(build)

	e.mu.Lock()
	if e.body[k] == nil {
		e.body[k] = b
		if !e.dropped {
			s.encResident.Add(int64(len(b)))
		}
	} else {
		b = e.body[k]
	}
	e.mu.Unlock()
	return b
}

// drop releases the entry's encoded bodies from the resident-bytes
// gauge; the result cache calls it when the entry is evicted, replaced,
// or invalidated. Idempotent; a build racing a drop charges nothing.
func (e *sweepEntry) drop(resident *atomic.Int64) {
	e.mu.Lock()
	if !e.dropped {
		e.dropped = true
		for _, b := range e.body {
			resident.Add(-int64(len(b)))
		}
	}
	e.mu.Unlock()
}

// encCounter tallies one content type's serving traffic: responses and
// bytes written, and how many slab/row encodes ran for how long. A warm
// hit adds responses and bytes but no encode time — the encode columns
// measure exactly the marshal work the encoded-slab cache exists to
// eliminate.
type encCounter struct {
	responses atomic.Int64
	bytes     atomic.Int64
	encodes   atomic.Int64
	encodeNs  atomic.Int64
}

func (c *encCounter) snapshot() map[string]int64 {
	return map[string]int64{
		"responses":    c.responses.Load(),
		"bytes_served": c.bytes.Load(),
		"encodes":      c.encodes.Load(),
		"encode_ns":    c.encodeNs.Load(),
	}
}

// encode runs one response-body build, tallying it on the encode
// counters.
func (c *encCounter) encode(build func() []byte) []byte {
	start := time.Now()
	b := build()
	c.encodes.Add(1)
	c.encodeNs.Add(time.Since(start).Nanoseconds())
	return b
}

// encodingStats is the /v1/stats "encoding" section.
func (s *Server) encodingStats() map[string]any {
	return map[string]any{
		"json":                         s.encJSON.snapshot(),
		"ndjson":                       s.encNDJSON.snapshot(),
		"columnar":                     s.encCol.snapshot(),
		"encoded_cache_resident_bytes": s.encResident.Load(),
	}
}

// writeBody writes one fully-encoded response body and tallies it. The
// body reaches the client as a single Write — on the warm path this is
// the whole response cost.
func (s *Server) writeBody(w http.ResponseWriter, contentType string, ctr *encCounter, body []byte, hdr func(http.Header)) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if hdr != nil {
		hdr(h)
	}
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(body)
	ctr.responses.Add(1)
	ctr.bytes.Add(int64(n))
}

// writeSweep answers a finished sweep. A request that negotiated the
// columnar format gets the entry's slab — encoded once per entry, then
// served as immutable bytes, with the JSON envelope's metadata moved to
// response headers. Otherwise the JSON envelope of kind k (the sweep
// list, or characterize's single result): a warm hit writes the entry's
// stored body, whose cached=true every warm response carries; the
// leader's cold cached=false body can never be reused, so it is
// marshalled straight out (byte-identical to the warm encoder) without
// being stored.
func (s *Server) writeSweep(w http.ResponseWriter, r *http.Request, sel sweepSel, entry *sweepEntry, cached bool, k bodyKind) {
	if wantsColumnar(r) {
		body := s.body(entry, bodyColumnar, &s.encCol, func() []byte {
			return wire.Encode(entry.results)
		})
		s.writeBody(w, wire.ContentType, &s.encCol, body, func(h http.Header) {
			h.Set(headerMatrix, sel.info.ID)
			h.Set(headerCached, strconv.FormatBool(cached))
			h.Set(headerRows, strconv.Itoa(len(entry.results)))
		})
		return
	}
	envelope := func(cached bool) []byte {
		if k == bodyJSONCharacterize {
			return marshalJSONBody(characterizeEnvelope(sel.info, cached, entry.results[0]))
		}
		return marshalJSONBody(sweepEnvelope(sel.info, cached, entry.results))
	}
	var body []byte
	if cached {
		body = s.body(entry, k, &s.encJSON, func() []byte { return envelope(true) })
	} else {
		body = s.encJSON.encode(func() []byte { return envelope(false) })
	}
	s.writeBody(w, "application/json", &s.encJSON, body, nil)
}

// sweepEnvelope and characterizeEnvelope build the JSON response values
// exactly as the pre-columnar handlers did — marshalJSONBody renders
// them byte-identically to writeJSON, which is what keeps cached warm
// bodies indistinguishable from freshly marshalled ones.
func sweepEnvelope(info MatrixInfo, cached bool, rs []core.Result) map[string]any {
	return map[string]any{"matrix": info, "cached": cached, "results": toResultsJSON(rs)}
}

func characterizeEnvelope(info MatrixInfo, cached bool, r core.Result) map[string]any {
	return map[string]any{"matrix": info, "cached": cached, "result": toResultJSON(r)}
}

// marshalJSONBody renders v with the same encoder settings writeJSON
// uses (two-space indent, trailing newline, HTML escaping), so a body
// built here and one written by writeJSON are byte-identical.
func marshalJSONBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// SweepBodyJSON builds the full /v1/sweep JSON response body for a
// result slab — exported so the bench harness can time the serving
// encode cost (the "JSON slab") outside an HTTP process.
func SweepBodyJSON(info MatrixInfo, cached bool, rs []core.Result) []byte {
	return marshalJSONBody(sweepEnvelope(info, cached, rs))
}

// rowBufPool recycles NDJSON row buffers across streams: each stream
// borrows one buffer for its lifetime and appends every row into it,
// so steady-state row writing allocates nothing.
var rowBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// appendResultNDJSON appends one result row encoded exactly as
// json.NewEncoder(w).Encode(toResultJSON(r)) would emit it — same field
// order, same omitempty elisions, same float formatting, same trailing
// newline — without allocating. The parity test asserts byte equality
// against encoding/json across randomized rows; non-finite floats are
// the one documented divergence (encoding/json fails the whole row,
// this encoder never sees one from the engine).
func appendResultNDJSON(b []byte, r core.Result) []byte {
	b = append(b, `{"workload":`...)
	b = appendJSONString(b, r.Workload)
	b = append(b, `,"format":`...)
	b = appendJSONString(b, r.Format.String())
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(r.P), 10)
	b = append(b, `,"kernel":`...)
	b = appendJSONString(b, r.Kernel)
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(r.Iterations), 10)
	b = append(b, `,"backend":`...)
	b = appendJSONString(b, r.Backend)
	b = append(b, `,"measured":`...)
	b = strconv.AppendBool(b, r.Measured)
	if r.MeasuredRuns != 0 {
		b = append(b, `,"measured_runs":`...)
		b = strconv.AppendInt(b, int64(r.MeasuredRuns), 10)
	}
	if r.Threads != 0 {
		b = append(b, `,"threads":`...)
		b = strconv.AppendInt(b, int64(r.Threads), 10)
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.DegradedReason != "" {
		b = append(b, `,"degraded_reason":`...)
		b = appendJSONString(b, r.DegradedReason)
	}
	b = append(b, `,"ns_per_nnz":`...)
	b = appendJSONFloat(b, r.NsPerNNZ)
	b = append(b, `,"sigma":`...)
	b = appendJSONFloat(b, r.Sigma)
	b = append(b, `,"balance_ratio":`...)
	b = appendJSONFloat(b, r.BalanceRatio)
	b = append(b, `,"mean_mem_cycles":`...)
	b = appendJSONFloat(b, r.MeanMemCycles)
	b = append(b, `,"mean_compute_cycles":`...)
	b = appendJSONFloat(b, r.MeanComputeCycles)
	b = append(b, `,"seconds":`...)
	b = appendJSONFloat(b, r.Seconds)
	b = append(b, `,"throughput_bps":`...)
	b = appendJSONFloat(b, r.ThroughputBps)
	b = append(b, `,"bandwidth_util":`...)
	b = appendJSONFloat(b, r.BandwidthUtil)
	b = append(b, `,"dot_engine_util":`...)
	b = appendJSONFloat(b, r.DotEngineUtil)
	b = append(b, `,"inner_pipeline_util":`...)
	b = appendJSONFloat(b, r.InnerPipelineUtil)
	b = append(b, `,"nonzero_tiles":`...)
	b = strconv.AppendInt(b, int64(r.NonZeroTiles), 10)
	b = append(b, `,"total_tiles":`...)
	b = strconv.AppendInt(b, int64(r.TotalTiles), 10)
	b = append(b, `,"total_bytes":`...)
	b = strconv.AppendInt(b, int64(r.TotalBytes), 10)
	b = append(b, `,"dynamic_energy_j":`...)
	b = appendJSONFloat(b, r.DynamicEnergyJ)
	b = append(b, `,"static_energy_j":`...)
	b = appendJSONFloat(b, r.StaticEnergyJ)
	b = append(b, `,"dynamic_w":`...)
	b = appendJSONFloat(b, r.Synth.DynamicW)
	b = append(b, `,"static_w":`...)
	b = appendJSONFloat(b, r.Synth.StaticW)
	b = append(b, `,"bram_18k":`...)
	b = strconv.AppendInt(b, int64(r.Synth.BRAM18K), 10)
	b = append(b, `,"ff":`...)
	b = strconv.AppendInt(b, int64(r.Synth.FF), 10)
	b = append(b, `,"lut":`...)
	b = strconv.AppendInt(b, int64(r.Synth.LUT), 10)
	return append(b, '}', '\n')
}

// appendJSONString appends s as a JSON string. The fast path covers
// printable ASCII with nothing to escape under encoding/json's default
// rules (which HTML-escape <, >, &); anything else — control bytes,
// quotes, backslashes, DEL, multi-byte UTF-8 — falls back to
// encoding/json itself, so escaping semantics cannot drift.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			blob, err := json.Marshal(s)
			if err != nil {
				blob = []byte(`""`)
			}
			return append(b, blob...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f formatted exactly as encoding/json formats
// a float64: shortest round-trip representation, fixed notation inside
// [1e-6, 1e21), 'e' notation outside with the exponent's leading zero
// stripped. The caller guarantees f is finite (encoding/json errors on
// NaN/Inf; engine results never carry them).
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json rewrites e.g. 1e-09 to 1e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

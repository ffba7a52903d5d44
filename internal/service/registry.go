// Package service is the long-running characterization front-end: an
// HTTP/JSON API over the core engine that keeps plans and sweep results
// warm across requests. It holds a named matrix registry (built-in
// workload suites plus content-hash-addressed Matrix Market uploads), a
// singleflight-deduplicated LRU result cache, and the advisor endpoint —
// the serving layer that makes the encode-once plan cache pay off for
// many concurrent clients instead of one CLI invocation.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"copernicus/internal/matrix"
)

// MatrixInfo is the registry's public description of one matrix.
type MatrixInfo struct {
	ID      string  `json:"id"`
	Name    string  `json:"name"`
	Source  string  `json:"source"` // "builtin" or "upload"
	Kind    string  `json:"kind,omitempty"`
	Rows    int     `json:"rows"`
	Cols    int     `json:"cols"`
	NNZ     int     `json:"nnz"`
	Density float64 `json:"density"`
}

// entry pairs the public description with the matrix itself.
type entry struct {
	info MatrixInfo
	m    *matrix.CSR
}

// Registry maps stable IDs (and case-insensitive names) to matrices.
// Built-in suite matrices are registered under their workload IDs at
// server construction; uploads are addressed by a content hash of their
// canonical CSR form, so re-uploading the same matrix — even with
// different comments, whitespace, or entry order — dedupes to the same
// ID and therefore the same warm plans and cached sweeps.
type Registry struct {
	mu     sync.RWMutex
	byID   map[string]*entry
	byName map[string]string // lower-cased name -> id
	order  []string          // registration order, for stable listings
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{
		byID:   make(map[string]*entry),
		byName: make(map[string]string),
	}
}

// ContentID returns the content-hash address of a matrix: sha256 over
// its canonical CSR arrays (dimensions, row pointers, columns, values),
// truncated to 128 bits and prefixed "m-". 128 bits keeps accidental or
// ground-out collisions out of reach — a collision would silently serve
// one matrix's results for another.
func ContentID(m *matrix.CSR) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(m.Rows)
	writeInt(m.Cols)
	for _, v := range m.RowPtr {
		writeInt(v)
	}
	for _, c := range m.Col {
		writeInt(c)
	}
	for _, v := range m.Val {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("m-%x", h.Sum(nil)[:16])
}

// register inserts an entry, returning the existing one when the ID is
// already present (dedup) — the bool reports whether it existed. Name
// claims are first-wins: a later matrix whose name collides with an
// existing one keeps its ID address but cannot hijack the name — an
// upload named after a built-in must not silently redirect requests for
// that built-in.
func (r *Registry) register(info MatrixInfo, m *matrix.CSR) (MatrixInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.byID[info.ID]; ok {
		return prior.info, true
	}
	info.Rows, info.Cols, info.NNZ, info.Density = m.Rows, m.Cols, m.NNZ(), m.Density()
	// Reserve the lower-cased ID in the name map too: byID lookups are
	// case-sensitive, so without the reservation an upload could claim
	// "kr" as a display name and hijack case-insensitive lookups of the
	// built-in "KR".
	if key := strings.ToLower(info.ID); r.byName[key] == "" {
		r.byName[key] = info.ID
	}
	if key := strings.ToLower(info.Name); key != "" && key != strings.ToLower(info.ID) {
		if _, taken := r.byName[key]; taken {
			info.Name = info.ID // collision: stay addressable by ID only
		} else {
			r.byName[key] = info.ID
		}
	}
	r.byID[info.ID] = &entry{info: info, m: m}
	r.order = append(r.order, info.ID)
	return info, false
}

// addBuiltin registers a built-in suite matrix under its workload ID.
func (r *Registry) addBuiltin(id, name, kind string, m *matrix.CSR) MatrixInfo {
	info, _ := r.register(MatrixInfo{ID: id, Name: name, Source: "builtin", Kind: kind}, m)
	return info
}

// addUpload registers an uploaded matrix under its content hash. The
// optional display name is kept only for the first upload of a given
// content; duplicates return the original entry with existed=true.
func (r *Registry) addUpload(name string, m *matrix.CSR) (MatrixInfo, bool) {
	id := ContentID(m)
	if name == "" {
		name = id
	}
	return r.register(MatrixInfo{ID: id, Name: name, Source: "upload"}, m)
}

// Lookup resolves a reference — an ID, or a registered name
// (case-insensitive) — to a registry entry.
func (r *Registry) Lookup(ref string) (MatrixInfo, *matrix.CSR, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byID[ref]
	if !ok {
		if id, named := r.byName[strings.ToLower(ref)]; named {
			e, ok = r.byID[id]
		}
	}
	if !ok {
		return MatrixInfo{}, nil, false
	}
	return e.info, e.m, true
}

// Remove deletes an entry by ID, returning its matrix so the caller can
// release engine plans keyed to it.
func (r *Registry) Remove(id string) (MatrixInfo, *matrix.CSR, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	if !ok {
		return MatrixInfo{}, nil, false
	}
	delete(r.byID, id)
	// Release the name and ID reservations only if this entry actually
	// owns them (it may have lost a first-wins collision and never
	// claimed the name).
	for _, key := range []string{strings.ToLower(e.info.Name), strings.ToLower(id)} {
		if key != "" && r.byName[key] == id {
			delete(r.byName, key)
		}
	}
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return e.info, e.m, true
}

// List returns every registered matrix in registration order.
func (r *Registry) List() []MatrixInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]MatrixInfo, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id].info)
	}
	return out
}

// Len returns the number of registered matrices.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

package hlsim

import (
	"sync/atomic"

	"copernicus/internal/faults"
)

// Fault-injection points of the plan's warmup pass (encode.tile fires
// before each tile's encode, verify.tile before each verify), the exec
// build and the exec hot loop (see internal/faults). Disarmed they cost
// one atomic load per hit; the chaos suite arms them to prove a panic or
// error inside any warmup worker or exec span leaves the plan slot idle
// and the pools at full capacity.
var (
	ptEncodeTile = faults.Point("hlsim.encode.tile")
	ptVerifyTile = faults.Point("hlsim.verify.tile")
	ptExecBuild  = faults.Point("hlsim.exec.build")
	ptExecSpan   = faults.Point("hlsim.exec.span")
)

// storeFirst publishes err as the phase's failure unless another worker
// beat it there — fan-out phases report the first fault and discard the
// rest.
func storeFirst(p *atomic.Pointer[error], err error) {
	if err == nil {
		return
	}
	p.CompareAndSwap(nil, &err)
}

// loadErr unwraps an atomic error slot.
func loadErr(p *atomic.Pointer[error]) error {
	if ep := p.Load(); ep != nil {
		return *ep
	}
	return nil
}

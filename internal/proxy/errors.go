package proxy

import "errors"

// The proxy's failure taxonomy. Every error the request path returns
// matches exactly one of these families via errors.Is:
//
//   - ErrOffline: the network is unreachable. Not retried — the proxy
//     answers with its offline mode instead (any held device copy beats
//     a failed page load).
//   - ErrUpstream: a transient upstream failure (injected fault, 5xx,
//     dropped response). Retried with jittered exponential backoff; the
//     per-upstream circuit breakers count these.
//   - ErrDegraded: umbrella for "the resilience layer refused to call
//     the upstream". ErrBudgetExceeded and ErrCircuitOpen both match it,
//     so callers can branch on the family or the precise cause.
//
// Application errors (unknown page, rendering failure) belong to none
// of the families and propagate unchanged: a healthy upstream saying
// "no" is not a fault to retry or degrade around.
var (
	// ErrOffline is returned by Transport implementations when the
	// network is unreachable. The proxy answers it with its offline
	// mode: any held device copy is served rather than failing the
	// page load.
	ErrOffline = errors.New("proxy: network unreachable")

	// ErrUpstream marks a transient upstream failure worth retrying.
	// Transport implementations wrap retryable causes (5xx responses,
	// injected chaos faults) with it.
	ErrUpstream = errors.New("proxy: transient upstream failure")

	// ErrDegraded is the umbrella the resilience-layer refusals match:
	// errors.Is(err, ErrDegraded) is true for ErrBudgetExceeded and
	// ErrCircuitOpen.
	ErrDegraded = errors.New("proxy: degraded service")

	// ErrBudgetExceeded reports that the per-load latency budget was
	// exhausted before the upstream call could be made.
	ErrBudgetExceeded error = &degradedError{msg: "proxy: per-load latency budget exceeded"}

	// ErrCircuitOpen reports that the upstream's circuit breaker is
	// open and the call was refused without touching the network.
	ErrCircuitOpen error = &degradedError{msg: "proxy: circuit breaker open"}
)

// degradedError is a named refusal under the ErrDegraded umbrella.
type degradedError struct{ msg string }

func (e *degradedError) Error() string { return e.msg }

// Unwrap makes every degradedError match ErrDegraded via errors.Is.
func (e *degradedError) Unwrap() error { return ErrDegraded }

// DegradeReason names why a load was answered below full protocol
// fidelity. It doubles as the `reason` metric label on
// speedkit.device.degraded.total and the trace annotation.
type DegradeReason string

// Degradation ladder rungs, roughly in order of decreasing fidelity.
const (
	// DegradeNone: the load ran the full protocol.
	DegradeNone DegradeReason = ""
	// DegradeServeStale: the sketch (or shell upstream) was unavailable
	// and a held copy stored within the last Δ was served. Such a copy
	// cannot exceed the staleness bound: any invalidating write
	// postdates its StoredAt, which is at most Δ ago. A CDN edge that
	// answers from a copy its upstream failed to refresh is the same rung
	// one tier out (SourceCDNStale).
	DegradeServeStale DegradeReason = "serve_stale"
	// DegradeRevalidate: the sketch was unavailable and no held copy
	// was young enough, so the load was forced through the
	// version-conditioned revalidation path.
	DegradeRevalidate DegradeReason = "forced_revalidate"
	// DegradeOfflineShell: the network was unreachable and a held copy
	// was served regardless of age (the explicit Offline mode; the Δ
	// bound is suspended and PageLoad.Offline is set).
	DegradeOfflineShell DegradeReason = "offline_shell"
	// DegradeCircuitOpen: a breaker refused the upstream call.
	DegradeCircuitOpen DegradeReason = "circuit_open"
	// DegradeBudget: the per-load latency budget ran out.
	DegradeBudget DegradeReason = "budget"
	// DegradeRetriesExhausted: transient upstream failures persisted
	// through the whole retry schedule.
	DegradeRetriesExhausted DegradeReason = "retries_exhausted"
	// DegradeBlocksLocal: origin-sourced personalized fragments could
	// not be fetched and the device rendered local fallbacks instead.
	DegradeBlocksLocal DegradeReason = "blocks_local"
)

// degradeReasons enumerates the non-empty rungs for metric
// pre-resolution.
var degradeReasons = []DegradeReason{
	DegradeServeStale, DegradeRevalidate, DegradeOfflineShell,
	DegradeCircuitOpen, DegradeBudget, DegradeRetriesExhausted,
	DegradeBlocksLocal,
}

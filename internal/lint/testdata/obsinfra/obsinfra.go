// Package obsinfra is the clean case of the telemetry boundary. The
// fixture test loads it under "fixture/internal/cache", so the analyzers
// treat it as shared infrastructure — which may count through obs, since
// obs reaches no identity-bearing package.
package obsinfra

import (
	"speedkit/internal/obs"
)

// Hits is instrumented through a registry the caller injects: no finding.
func Hits(r *obs.Registry) {
	r.Counter("fixture.cache.hits.total").Inc()
}

package gdpr

import (
	"speedkit/internal/obs"
	"speedkit/internal/slog"
)

// The structured logger and the metrics registry both live below the
// GDPR boundary, so neither can import the classification itself. This
// init installs their runtime fences from the classification's own
// package: every field name classified as PII becomes a denied log key
// (its values are redacted) and a denied metric label key (registering
// one panics). Every binary that links identity links this package, so
// each gets both fences; the static piiflow/obslabels analyzers remain
// the primary gate, these are the belt-and-braces behind them.
func init() {
	fields := PIIFields()
	slog.DenyKeys(fields...)
	obs.DenyLabelKeys(fields...)
}

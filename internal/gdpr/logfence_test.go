package gdpr

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/obs"
	"speedkit/internal/slog"
)

// TestFencesDenyEveryPIIField: in a process that links this package, a
// metric label under any PII-classified field name panics at
// registration, and a log field under one is redacted.
func TestFencesDenyEveryPIIField(t *testing.T) {
	r := obs.NewRegistry()
	var buf bytes.Buffer
	log := slog.New(&buf, clock.NewSimulated(time.Time{}), slog.LevelInfo)
	for _, f := range PIIFields() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("label key %q was accepted", f)
				}
			}()
			r.Counter("speedkit.test.pii", obs.L(f, "x"))
		}()
		buf.Reset()
		log.Info(context.Background()).Str(f, "secret-value").Msg("m")
		if strings.Contains(buf.String(), "secret-value") {
			t.Errorf("log field %q not redacted: %q", f, buf.String())
		}
	}
}

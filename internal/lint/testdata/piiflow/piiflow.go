// Package piiflow is the fixture for the value-level taint analyzer:
// interprocedural flows into WAL frames, metric labels, and CDN bodies,
// sanitizer cut-offs, struct-field sensitivity, and suppression.
package piiflow

import (
	"speedkit/internal/cache"
	"speedkit/internal/cdn"
	"speedkit/internal/gdpr"
	"speedkit/internal/obs"
	"speedkit/internal/session"
	"speedkit/internal/wal"
)

// --- interprocedural flow into a WAL frame (two hops) ---

// frame is hop zero: a pure transformer, keeps taint.
func frame(payload string) []byte { return []byte(payload) }

// journal is the hop that reaches the sink; reported at its callers.
func journal(l *wal.Log, payload []byte) {
	l.Append(payload)
}

func LeakWAL(l *wal.Log, u *session.User) {
	journal(l, frame(u.Email)) // want "reaches WAL append"
}

// --- interprocedural flow into an obs metric label (two hops) ---

func mkLabel(v string) obs.Label { return obs.L("segment", v) }

func relayLabel(v string) obs.Label { return mkLabel(v) }

func LeakLabel(u *session.User) obs.Label {
	return relayLabel(u.Tier) // want "reaches obs metric label"
}

// --- interprocedural flow into a CDN response body (two hops) ---

func entryFor(key string, body []byte) cache.Entry {
	return cache.Entry{Key: key, Body: body}
}

func fill(e *cdn.Edge, entry cache.Entry) {
	e.Fill(entry)
}

func LeakCDN(e *cdn.Edge, u *session.User) {
	entry := entryFor("/profile", frame(u.Name))
	fill(e, entry) // want "reaches CDN edge fill"
}

// --- direct (one-hop) sink calls are caught too ---

func LeakTrace(tr *obs.Trace, u *session.User) {
	tr.SetSource(u.ID) // want "reaches trace attribute"
}

// --- sanitizers cut the flow ---

func CleanPseudonymized(l *wal.Log, u *session.User) {
	journal(l, frame(gdpr.Pseudonymize(u.ID)))
}

func CleanStripped(u *session.User) {
	fields := map[string]string{"email": u.Email, "path": "/p"}
	clean, _ := gdpr.StripPII(fields)
	journalMap(clean)
}

func journalMap(m map[string]string) {
	for k := range m {
		obs.L("field", k)
	}
}

// --- struct-field sensitivity ---

type record struct {
	Email string // PII-classified slot
	Path  string // anonymous per the gdpr classification
}

func LeakField(l *wal.Log, u *session.User) {
	var r record
	r.Email = u.Email
	journal(l, frame(r.Email)) // want "reaches WAL append"
}

func CleanField(l *wal.Log, u *session.User) {
	var r record
	r.Email = u.Email
	// Only the untracked, anonymous field is journaled: clean.
	journal(l, frame(r.Path))
}

// --- the snapshotted log persists two ways: a record, and the bytes a
// checkpoint's export callback returns ---

func LeakSnapshottedAppend(s *wal.Snapshotted, u *session.User) {
	s.Append(frame(u.Email)) // want "reaches WAL append"
}

func LeakCheckpoint(s *wal.Snapshotted, u *session.User) {
	s.Checkpoint(func() []byte { return frame(u.Name) }) // want "reaches snapshot checkpoint"
}

func CleanCheckpoint(s *wal.Snapshotted, u *session.User) {
	s.Checkpoint(func() []byte { return frame(gdpr.Pseudonymize(u.ID)) })
}

// --- anonymous fields of identity types do not leak the holder ---

func CleanRegionLabel(u *session.User) obs.Label {
	return relayLabel(string(u.Region))
}

// --- suppression: the directive carries an auditable reason ---

func SuppressedLeak(l *wal.Log, u *session.User) {
	//lint:ignore piiflow fixture demonstrates an audited exemption
	journal(l, frame(u.Email))
}

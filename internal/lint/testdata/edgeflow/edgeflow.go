// Package edgeflow is the fixture for the edge-proxy sink group: purge
// keys handed to the edge are served and persisted on shared POPs, so
// identity-derived keys are flagged and pseudonymized ones pass. The
// sketch the edge serves is built from page paths and handed out without
// reading the request, so its serve path is clean.
package edgeflow

import (
	"net/http"

	"speedkit/internal/cachesketch"
	"speedkit/internal/edge"
	"speedkit/internal/gdpr"
	"speedkit/internal/session"
)

// profileKey is a pure transformer: taint rides through.
func profileKey(v string) string { return "/profile/" + v }

// purge is the hop that reaches the sink; reported at its callers.
func purge(p *edge.Proxy, key string) { p.Purge(key) }

func LeakPurgeKey(p *edge.Proxy, u *session.User) {
	purge(p, profileKey(u.Email)) // want "reaches edge cache commit"
}

func LeakPurgeDirect(p *edge.Proxy, u *session.User) {
	p.Purge(u.ID) // want "reaches edge cache commit"
}

// --- pseudonymized keys are clean ---

func CleanPseudonymizedKey(p *edge.Proxy, u *session.User) {
	purge(p, profileKey(gdpr.Pseudonymize(u.ID)))
}

// --- anonymous paths never carry taint ---

func CleanAnonymousKey(p *edge.Proxy) {
	purge(p, profileKey("p00042"))
}

// --- the sketch serve path reads nothing from the request ---

// CleanSketchServe: a logged-in device's GET /v1/sketch is answered from
// the copy the edge was handed — coherence metadata over page paths — and
// nothing of the requester reaches a sink.
func CleanSketchServe(p *edge.Proxy, sn *cachesketch.Snapshot, w http.ResponseWriter, r *http.Request, u *session.User) {
	p.InstallSketch(sn)
	if u.LoggedIn {
		p.ServeHTTP(w, r)
	}
}

// Package clusterflow is the fixture for the cluster delta-exchange sink
// group: resource IDs reported into a node or the cluster become wire
// frames replicated to every node and journaled into each node's WAL, so a
// session-ID-derived key reaching a report writer is a cluster-wide
// identity broadcast — flagged; pseudonymized and anonymous keys pass.
package clusterflow

import (
	"time"

	"speedkit/internal/cluster"
	"speedkit/internal/gdpr"
	"speedkit/internal/session"
)

// cartKey is a pure transformer: taint rides through.
func cartKey(v string) string { return "/cart/" + v }

// forward is the hop that reaches the node sink; reported at callers.
func forward(n *cluster.Node, key string) { _, _ = n.ReportWrite(key) }

func LeakSessionIDIntoFrame(n *cluster.Node, u *session.User) {
	forward(n, cartKey(u.ID)) // want "reaches cluster delta-exchange frame"
}

func LeakUserIDDirect(c *cluster.Cluster, u *session.User) {
	_, _ = c.ReportWrite(cartKey(u.ID)) // want "reaches cluster delta-exchange frame"
}

func LeakEmailIntoFillReport(c *cluster.Cluster, u *session.User, exp time.Time) {
	_ = c.ReportFill(cartKey(u.Email), exp) // want "reaches cluster delta-exchange frame"
}

// --- pseudonymized keys are clean ---

func CleanPseudonymizedKey(c *cluster.Cluster, u *session.User) {
	_, _ = c.ReportWrite(cartKey(gdpr.Pseudonymize(u.ID)))
}

// --- anonymous resource IDs never carry taint ---

func CleanAnonymousKey(n *cluster.Node) {
	forward(n, cartKey("p00042"))
}

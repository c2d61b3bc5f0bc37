package httpbody

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/tracectx"
)

// DefaultTimeout is the deadline of a Sender built from no client.
const DefaultTimeout = 10 * time.Second

// Sender is the one send path of the tree's shipping clients: the
// device transport, the edge's upstream requests and a cluster peer. It
// keeps what it needs of an *http.Client, its Transport and its Timeout,
// and hands each request straight to the transport's RoundTrip.
//
// Every request runs under the Timeout, measured from its send to the
// end of its body. A parent context that cannot end (Background,
// WithoutCancel) gets a deadline context shared with the other requests
// of that Timeout (sharedDeadline), so such a request is cut no sooner
// than Timeout after it starts and no later than 9/8 of it; a parent
// that can end gets a context.WithTimeout of its own, released when the
// request fails or its body is closed. A zero Timeout is no deadline, as
// it is for http.Client.
//
// A Sender follows no redirect and keeps no cookies: a 3xx answer is
// returned as it came. No /v1 answer is one, and a shared tier that
// followed one would fetch a body from wherever Location pointed and
// could store it under the key the request named.
type Sender struct {
	rt      http.RoundTripper
	timeout time.Duration
	shared  *sharedDeadline // nil when timeout is 0
}

// NewSender builds a Sender from hc's Transport (nil is
// http.DefaultTransport) and Timeout. A nil hc is a client with
// DefaultTimeout over http.DefaultTransport.
func NewSender(hc *http.Client) Sender {
	s := Sender{rt: http.DefaultTransport, timeout: DefaultTimeout}
	if hc != nil {
		if hc.Transport != nil {
			s.rt = hc.Transport
		}
		s.timeout = hc.Timeout
	}
	if s.timeout > 0 {
		s.shared = sharedDeadlineFor(s.timeout)
	}
	return s
}

// Timeout is the deadline every request of s runs under; 0 is none.
func (s *Sender) Timeout() time.Duration { return s.timeout }

// Send sends method to rawURL with body and hdr's entries as the
// request's headers; hdr itself is not kept. A request whose ctx carries
// a span (tracectx) also carries its W3C traceparent: anonymous
// identifiers only, safe to send to a shared tier. The caller closes the
// response body. An error is an *url.Error, as http.Client.Do returns
// it, so errors.Is(err, context.DeadlineExceeded) holds on a timeout.
//
// Under a shared deadline the request's context is that deadline alone:
// it carries none of ctx's values, and net/http reads one, an
// httptrace.ClientTrace, which no tier sets.
func (s *Sender) Send(ctx context.Context, method, rawURL string, body io.Reader, hdr http.Header) (*http.Response, error) {
	reqCtx := ctx
	var cancel context.CancelFunc
	switch {
	case s.timeout <= 0:
	case ctx.Done() == nil:
		reqCtx = s.shared.context()
	default:
		reqCtx, cancel = context.WithTimeout(ctx, s.timeout)
	}
	req, err := http.NewRequestWithContext(reqCtx, method, rawURL, body)
	if err == nil {
		for k, vs := range hdr {
			req.Header[k] = vs
		}
		if sc, ok := tracectx.SpanFromContext(ctx); ok {
			req.Header.Set(tracectx.Header, sc.Traceparent())
		}
		var resp *http.Response
		if resp, err = s.rt.RoundTrip(req); err == nil {
			if cancel != nil {
				resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
			}
			return resp, nil
		}
	}
	if cancel != nil {
		cancel()
	}
	// http.Client names the operation "Get" for GET.
	op := method
	if len(op) > 1 {
		op = op[:1] + strings.ToLower(op[1:])
	}
	return nil, &url.Error{Op: op, URL: rawURL, Err: err}
}

// cancelBody releases a request's own deadline context when its body is
// closed.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// sharedDeadline hands the requests of one Timeout whose parent cannot
// end a deadline context they share, so such a request costs no context
// and no timer of its own. Each context ends at its making plus
// Timeout + Timeout/8, and is handed out only while that end is at least
// Timeout away: a request it carries is cut between Timeout and 9/8 of it
// after its send. A context nothing holds any more ends itself at its
// deadline, which releases its timer. Time is the coarse wall clock: a
// deadline is wall time whatever clock the caller simulates.
type sharedDeadline struct {
	timeout time.Duration
	cur     atomic.Pointer[deadlineCtx]
}

type deadlineCtx struct {
	ctx context.Context
	// end is the context's deadline, Unix nanoseconds.
	end int64
	// cancel is never called: the context ends at its deadline.
	cancel context.CancelFunc
}

var (
	deadlinesMu sync.Mutex
	// deadlines holds the process's one sharedDeadline per Timeout a
	// Sender was built with, so the devices a process builds by the
	// thousand share theirs. A process builds its clients from a handful
	// of Timeouts, so the table stays that small.
	deadlines = map[time.Duration]*sharedDeadline{}
)

func sharedDeadlineFor(timeout time.Duration) *sharedDeadline {
	deadlinesMu.Lock()
	defer deadlinesMu.Unlock()
	d, ok := deadlines[timeout]
	if !ok {
		d = &sharedDeadline{timeout: timeout}
		deadlines[timeout] = d
	}
	return d
}

// coarse is the clock shared deadlines read, and its resolution the most
// it lags the wall clock by.
var coarse = clock.CoarseSystem.(*clock.Coarse)

// context returns a context that ends no sooner than d.timeout from now
// and no later than 9/8 of it.
func (d *sharedDeadline) context() context.Context {
	// The coarse clock may lag the wall clock by its resolution, which
	// the check takes off the time left.
	need := coarse.Now().UnixNano() + int64(d.timeout+coarse.Resolution())
	if c := d.cur.Load(); c != nil && c.end >= need {
		return c.ctx
	}
	// Callers that find the current one too near its end at once may each
	// make one; the last stored serves, and the others end at their
	// deadlines like any other.
	end := coarse.Now().UnixNano() + int64(d.timeout+d.timeout/8)
	c := &deadlineCtx{end: end}
	c.ctx, c.cancel = context.WithDeadline(context.Background(), time.Unix(0, end))
	d.cur.Store(c)
	return c.ctx
}

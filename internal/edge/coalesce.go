package edge

import (
	"net/http"
	"sync"
)

// fill is one in-flight origin fetch that any number of concurrent
// requests for the same key share. The first requester (the leader)
// owns the upstream connection and appends body chunks as they arrive;
// late joiners (followers) attach and stream the shared buffer at their
// own pace, waking on the condition variable as the leader publishes
// more bytes. A stampede of N requests therefore costs exactly one
// origin fetch, and no follower waits for the full body before its
// first byte goes out — streaming coalescing, not block-and-replay.
type fill struct {
	mu   sync.Mutex
	cond *sync.Cond

	// hdrDone flips once status+header are published; followers can
	// write their response preamble from that point.
	hdrDone bool
	status  int
	header  http.Header

	// buf is the body so far. Bytes once published never change — the
	// leader writes only past len(buf), or into a new array — so a follower
	// holding an offset may re-slice under the lock and copy outside it.
	buf  []byte
	done bool
	err  error
}

func newFill() *fill {
	f := &fill{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// publishHeader makes status and selected headers visible to followers.
func (f *fill) publishHeader(status int, h http.Header) {
	f.mu.Lock()
	f.status = status
	f.header = h
	f.hdrDone = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// publish makes buf, the body read so far, visible to followers. Each
// call extends the previous one's bytes.
func (f *fill) publish(buf []byte) {
	f.mu.Lock()
	f.buf = buf
	f.mu.Unlock()
	f.cond.Broadcast()
}

// finish marks the fill complete (err != nil: the upstream fetch broke;
// followers that already streamed a prefix simply stop short, followers
// still waiting for the header get an error response).
func (f *fill) finish(err error) {
	f.mu.Lock()
	f.done = true
	f.err = err
	if !f.hdrDone {
		f.hdrDone = true
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

// waitHeader blocks until the response preamble (or a terminal error)
// is available.
func (f *fill) waitHeader() (status int, header http.Header, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.hdrDone {
		f.cond.Wait()
	}
	return f.status, f.header, f.err
}

// next returns body bytes past off, blocking until more arrive or the
// fill ends. A nil chunk with done=true means the body is complete.
func (f *fill) next(off int) (chunk []byte, done bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.buf) <= off && !f.done {
		f.cond.Wait()
	}
	if len(f.buf) > off {
		return f.buf[off:], false
	}
	return nil, true
}

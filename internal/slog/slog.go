// Package slog is the repo's sanctioned structured logger: leveled,
// key/value, logfmt-shaped lines, every record stamped with the active
// trace/span identity so a log line can be joined to the distributed
// trace that produced it.
//
// It is deliberately a leaf below the GDPR boundary: it imports only
// the stdlib, the clock discipline, and tracectx — never internal/gdpr
// or internal/session — so the shared-infrastructure packages (cdn,
// cache, wal, durable, invalidb, edge) that the gdprboundary analyzer
// fences off from identity may still log. The
// fence against PII reaching log values is enforced twice: statically
// by the piiflow and obslabels analyzers (field names classified PII
// cannot flow into Event value positions, fail-closed), and at runtime
// by a process-wide denied-key list that redacts values under keys the
// GDPR classification marks PII (internal/gdpr installs the list from
// PIIFields at init, so any binary that links identity has it).
//
// The API is allocation-disciplined in the zerolog style: a level
// method returns a pooled *Event on the enabled path and nil on the
// disabled one, and every Event method is a nil-safe no-op, so a
// disabled logger (or a nil *Logger) costs one branch and zero
// allocations per call site — the same bar the tracer holds, pinned by
// the same AllocsPerRun gates.
package slog

import (
	"context"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"speedkit/internal/clock"
	"speedkit/internal/tracectx"
)

// Level orders log severities. The zero value is Info: a zero-config
// logger does the unsurprising thing.
type Level int32

const (
	// LevelDebug is per-operation detail, off in production.
	LevelDebug Level = -1
	// LevelInfo is the default: state changes worth a line.
	LevelInfo Level = 0
	// LevelWarn is degraded-but-serving: retries, breaker opens.
	LevelWarn Level = 1
	// LevelError is failed work.
	LevelError Level = 2
	// levelOff sits above every real level; a nil logger behaves as if
	// set to it.
	levelOff Level = 3
)

// String returns the lowercase level name used on the wire.
func (l Level) String() string {
	switch {
	case l <= LevelDebug:
		return "debug"
	case l == LevelInfo:
		return "info"
	case l == LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel maps a level name to its Level, defaulting to Info for
// anything unrecognized (fail-open to *more* logging, never less).
func ParseLevel(s string) Level {
	switch s {
	case "debug":
		return LevelDebug
	case "warn":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// deniedKeys is the process-wide runtime PII fence: values logged under
// these keys render as the redaction marker instead. It is written once
// at init time (internal/obs installs gdpr.PIIFields) and read on every
// enabled record; the atomic.Pointer keeps the read wait-free.
var deniedKeys atomic.Pointer[map[string]struct{}]

// redacted is what a value under a denied key becomes. The key still
// appears — "something was here and was withheld" is signal.
const redacted = "[REDACTED]"

// DenyKeys merges the given field names into the process-wide denied-key
// list (case-sensitively; callers pass the already-lowercased GDPR
// classification). Values later logged under any of these keys are
// replaced with "[REDACTED]". The list only grows — there is no API to
// un-deny a key, deliberately.
func DenyKeys(keys ...string) {
	for {
		old := deniedKeys.Load()
		next := make(map[string]struct{}, len(keys))
		if old != nil {
			for k := range *old {
				next[k] = struct{}{}
			}
		}
		for _, k := range keys {
			next[k] = struct{}{}
		}
		if deniedKeys.CompareAndSwap(old, &next) {
			return
		}
	}
}

func keyDenied(k string) bool {
	m := deniedKeys.Load()
	if m == nil {
		return false
	}
	_, denied := (*m)[k]
	return denied
}

// Logger writes logfmt-shaped records to one writer, serialized by a
// mutex (records are small; contention is not a design concern at this
// tier). A nil *Logger is fully disabled: every method is a nil-safe
// no-op, so components take a *Logger without caring whether logging is
// deployed — the same contract as *obs.Tracer.
type Logger struct {
	clk   clock.Clock
	level atomic.Int32
	name  string

	mu sync.Mutex
	w  io.Writer

	pool *sync.Pool
}

// New creates a logger writing to w (required), timestamping from clk
// (default the coarse system clock — log timestamps do not deserve a
// VDSO-bypassing clock read), at the given minimum level.
func New(w io.Writer, clk clock.Clock, level Level) *Logger {
	if clk == nil {
		clk = clock.CoarseSystem
	}
	l := &Logger{clk: clk, w: w}
	l.level.Store(int32(level))
	l.pool = &sync.Pool{New: func() any {
		return &Event{buf: make([]byte, 0, 256)}
	}}
	return l
}

// Named returns a logger that stamps component=name on every record,
// sharing the writer, level, and pool of its parent. Name is a static
// component identifier ("wal", "invalidb"), never request state.
func (l *Logger) Named(name string) *Logger {
	if l == nil {
		return nil
	}
	child := &Logger{clk: l.clk, name: name, w: l.w, pool: l.pool}
	child.level.Store(l.level.Load())
	return child
}

// SetLevel changes the minimum level at runtime. Safe while logging.
func (l *Logger) SetLevel(level Level) {
	if l == nil {
		return
	}
	l.level.Store(int32(level))
}

// Enabled reports whether a record at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && int32(level) >= l.level.Load()
}

// Debug starts a debug record; nil when debug is filtered.
func (l *Logger) Debug(ctx context.Context) *Event { return l.event(ctx, LevelDebug) }

// Info starts an info record; nil when filtered.
func (l *Logger) Info(ctx context.Context) *Event { return l.event(ctx, LevelInfo) }

// Warn starts a warn record; nil when filtered.
func (l *Logger) Warn(ctx context.Context) *Event { return l.event(ctx, LevelWarn) }

// Error starts an error record; nil when filtered.
func (l *Logger) Error(ctx context.Context) *Event { return l.event(ctx, LevelError) }

// event is the gate: the disabled outcome is two loads and a nil
// return, with the ctx untouched — the alloc tests pin it at zero.
func (l *Logger) event(ctx context.Context, level Level) *Event {
	if !l.Enabled(level) {
		return nil
	}
	e := l.pool.Get().(*Event)
	e.l = l
	e.buf = e.buf[:0]
	e.buf = append(e.buf, "ts="...)
	e.buf = l.clk.Now().UTC().AppendFormat(e.buf, time.RFC3339Nano)
	e.buf = append(e.buf, " level="...)
	e.buf = append(e.buf, level.String()...)
	if l.name != "" {
		e.buf = append(e.buf, " component="...)
		e.buf = appendValue(e.buf, l.name)
	}
	// Stamp the active trace/span identity, if any: this is the join key
	// between a log line and the distributed trace that produced it.
	if ctx != nil {
		if sc, ok := tracectx.SpanFromContext(ctx); ok {
			e.buf = append(e.buf, " trace="...)
			e.buf = append(e.buf, sc.TraceID.String()...)
			e.buf = append(e.buf, " span="...)
			e.buf = append(e.buf, sc.SpanID.String()...)
		}
	}
	return e
}

// Event is one in-flight record. All methods are nil-safe no-ops so the
// disabled path never branches at the call site beyond the initial nil.
// An Event is finished (and recycled) by Msg; using it afterwards is a
// bug, as with any pooled object.
type Event struct {
	l   *Logger
	buf []byte
}

// Str appends a string field. Values under PII-denied keys are
// redacted; the static analyzers reject such call sites outright, so
// this firing in production means a fence was bypassed — the value
// still never reaches the sink.
func (e *Event) Str(key, val string) *Event {
	if e == nil {
		return nil
	}
	if keyDenied(key) {
		val = redacted
	}
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '=')
	e.buf = appendValue(e.buf, val)
	return e
}

// Int appends an integer field.
func (e *Event) Int(key string, val int64) *Event {
	if e == nil {
		return nil
	}
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '=')
	e.buf = strconv.AppendInt(e.buf, val, 10)
	return e
}

// Uint appends an unsigned integer field (generations, LSNs, counters).
func (e *Event) Uint(key string, val uint64) *Event {
	if e == nil {
		return nil
	}
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '=')
	e.buf = strconv.AppendUint(e.buf, val, 10)
	return e
}

// Bool appends a boolean field.
func (e *Event) Bool(key string, val bool) *Event {
	if e == nil {
		return nil
	}
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '=')
	e.buf = strconv.AppendBool(e.buf, val)
	return e
}

// Dur appends a duration field in Go's duration syntax.
func (e *Event) Dur(key string, val time.Duration) *Event {
	if e == nil {
		return nil
	}
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '=')
	e.buf = append(e.buf, val.String()...)
	return e
}

// Err appends err under the "err" key; a nil error appends nothing.
func (e *Event) Err(err error) *Event {
	if e == nil || err == nil {
		return e
	}
	return e.Str("err", err.Error())
}

// Msg finishes the record with its human-readable message and writes
// it. The event is recycled; do not use it again.
func (e *Event) Msg(msg string) {
	if e == nil {
		return
	}
	e.buf = append(e.buf, " msg="...)
	e.buf = appendValue(e.buf, msg)
	e.buf = append(e.buf, '\n')
	l := e.l
	l.mu.Lock()
	l.w.Write(e.buf) //nolint:errcheck // a log sink that fails has nowhere to report to
	l.mu.Unlock()
	e.l = nil
	l.pool.Put(e)
}

// appendValue writes a logfmt value: bare when it is a simple token,
// quoted (Go syntax, deterministic) when it contains spaces, quotes,
// '=', or control bytes.
func appendValue(buf []byte, s string) []byte {
	if needsQuoting(s) {
		return strconv.AppendQuote(buf, s)
	}
	return append(buf, s...)
}

func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c == '=' || c == '"' || c == 0x7f {
			return true
		}
	}
	return false
}

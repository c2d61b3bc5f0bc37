package httpbody

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestServerClosesAHalfSentHeader: a client that sends part of a request
// header and then nothing loses its connection once ReadHeaderTimeout has
// passed. The server under test is NewServer's with that timeout
// shortened, so the test waits milliseconds rather than seconds.
func TestServerClosesAHalfSentHeader(t *testing.T) {
	shipped := NewServer(":0", http.NotFoundHandler())
	if shipped.ReadHeaderTimeout <= 0 || shipped.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want both set", shipped.ReadHeaderTimeout, shipped.IdleTimeout)
	}

	srv := NewServer("", http.NotFoundHandler())
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/page?path=/ HTTP/1.1\r\nHost: speedkit\r\nAccept: text/"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server answers nothing and closes: EOF, or a reset.
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the connection with a half-sent header is still open after 5 s")
	}
}

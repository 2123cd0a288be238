package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestReadHeaderTimeout pins the slow-header bound: a client that opens
// a connection and never finishes its request headers is disconnected
// once readHeaderTimeout passes, instead of holding a server goroutine
// forever.
func TestReadHeaderTimeout(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the positive constant %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /api/healthz HTTP/1.1\r\nHost: pxqld\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with unfinished headers still open after %v: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout-100*time.Millisecond {
		t.Errorf("connection dropped after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

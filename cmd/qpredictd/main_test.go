package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderIsCutOff: a connection that sends half a request line and
// stops is closed by the server once the header timeout has run, while a
// kept-alive connection beside it — whose requests arrive whole, with idle
// gaps longer than that timeout between them — keeps being served.
func TestSlowHeaderIsCutOff(t *testing.T) {
	const headerTimeout = 150 * time.Millisecond
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	}), headerTimeout)
	if srv.IdleTimeout != idleTimeout || newHTTPServer(nil, readHeaderTimeout).ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("timeouts: idle %v, header %v", srv.IdleTimeout, readHeaderTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "POST /v1/pred"); err != nil {
		t.Fatal(err)
	}
	closed := make(chan time.Duration, 1)
	go func() {
		// The server does not answer a header it never got; it hangs up.
		slow.SetReadDeadline(time.Now().Add(20 * headerTimeout))
		if _, err := io.Copy(io.Discard, slow); err != nil {
			t.Errorf("slow connection was not closed by the server: %v", err)
		}
		closed <- time.Since(start)
	}()

	good, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	answers := bufio.NewReader(good)
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(headerTimeout * 3 / 2) // idle is not slow
		}
		if _, err := io.WriteString(good, "GET /healthz HTTP/1.1\r\nHost: qpredictd\r\n\r\n"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		good.SetReadDeadline(time.Now().Add(20 * headerTimeout))
		resp, err := http.ReadResponse(answers, nil)
		if err != nil {
			t.Fatalf("request %d on the kept-alive connection: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "ok\n" || resp.Close {
			t.Fatalf("request %d: status %d, body %q, close %v", i, resp.StatusCode, body, resp.Close)
		}
	}
	if after := <-closed; after < headerTimeout {
		t.Fatalf("slow connection closed after %v, before the %v header timeout", after, headerTimeout)
	}
}

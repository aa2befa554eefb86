package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// Graceful is an HTTP listener with a deadline-bounded shutdown path.
// It exists because every listener this repository opens — ccdpd's API
// socket and the -debug-addr endpoint of ccdp/ccdpbench — needs the same
// close discipline: stop accepting, give in-flight requests a grace
// period to finish, then hard-close what remains. The debug listeners
// previously leaked (http.Serve on a deferred-Close listener, never
// drained); they now ride this type.
type Graceful struct {
	srv *http.Server
	ln  net.Listener
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot hold sockets open.
const readHeaderTimeout = 10 * time.Second

// Listen starts serving h on addr in a background goroutine and returns
// the running listener.
func Listen(addr string, h http.Handler) (*Graceful, error) {
	return listen(addr, h, readHeaderTimeout)
}

// listen is Listen with the header timeout as a parameter.
func listen(addr string, h http.Handler, headerTimeout time.Duration) (*Graceful, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	g := &Graceful{srv: &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout}, ln: ln}
	go func() {
		// ErrServerClosed is the normal shutdown signal; anything else
		// surfaces through Close's Shutdown error.
		_ = g.srv.Serve(ln)
	}()
	return g, nil
}

// Addr returns the bound address (useful with ":0").
func (g *Graceful) Addr() string {
	if g == nil {
		return ""
	}
	return g.ln.Addr().String()
}

// Close stops accepting connections and waits up to timeout for
// in-flight requests to complete; past the deadline remaining
// connections are closed hard. Safe on a nil receiver (no listener).
func (g *Graceful) Close(timeout time.Duration) error {
	if g == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := g.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = g.srv.Close()
	}
	return err
}

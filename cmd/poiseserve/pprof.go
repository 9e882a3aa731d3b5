package main

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"

	"poise/internal/wire"
)

// startPprofServer exposes the runtime profiling endpoints on their own
// listener, opt-in via -pprof, served by wire.Serve. The handlers are
// mounted on a dedicated mux (never the service's), so the decision API
// cannot leak debug endpoints, and the address is typically a loopback
// port. A failure to bind is returned at once. It returns the bound
// address and a stop function that shuts the listener down.
func startPprofServer(addr string, logf func(string, ...any)) (string, func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ctx, cancel := context.WithCancel(context.Background())
	bound := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() { served <- wire.Serve(ctx, addr, mux, func(a net.Addr) { bound <- a }) }()
	select {
	case err := <-served: // Serve reports a bind failure before it listens
		cancel()
		return "", nil, err
	case a := <-bound:
		stopped := make(chan struct{})
		go func() {
			if err := <-served; err != nil {
				logf("poiseserve: pprof server: %v", err)
			}
			close(stopped)
		}()
		logf("poiseserve: pprof debug endpoints on %s", a)
		return a.String(), func() { cancel(); <-stopped }, nil
	}
}

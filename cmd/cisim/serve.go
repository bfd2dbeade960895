package main

// cisim serve: the HTTP frontend over the shared sweep engine
// (internal/serve over internal/api). The process model mirrors the
// CLI: SIGINT or SIGTERM starts a graceful drain — queued sweeps are
// cancelled, the running sweep's in-flight jobs complete and are
// journaled, then the listener closes and the process exits.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cisim/internal/api"
	"cisim/internal/runner"
	"cisim/internal/serve"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address (host:port; port 0 picks a free port)")
	queue := fs.Int("queue", 0, "bounded sweep queue depth (0 = default 8); full queue answers 429")
	jobs := fs.Int("jobs", 0, "default runner-pool width for sweeps that do not set jobs (0 = GOMAXPROCS)")
	journalDir := fs.String("journal-dir", "", "write per-sweep crash-consistent journals into this directory")
	spansDir := fs.String("spans-dir", "", "write each sweep's span trace (JSONL, also served at /v1/sweeps/{id}/spans) into this directory")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long a SIGTERM/SIGINT drain may take before giving up")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file (for scripts using port 0)")
	cacheDir := fs.String("cache-dir", "", "persistent artifact store shared with other cisim processes (also CISIM_CACHE_DIR; DESIGN.md §13)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no arguments (got %q)", fs.Args())
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			return err
		}
	}
	if *spansDir != "" {
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			return err
		}
	}
	// The persistent store outlives individual sweeps: it mounts behind
	// the process cache for the daemon's lifetime, and its counters ride
	// in /healthz and the drain footer below.
	detachStore, err := attachStore(*cacheDir)
	if err != nil {
		return err
	}
	defer detachStore()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	depth := *queue
	if depth <= 0 {
		depth = serve.DefaultQueue
	}
	srv := serve.New(serve.Config{Queue: *queue, Jobs: *jobs, JournalDir: *journalDir,
		SpansDir: *spansDir, Store: runner.Artifacts.Store()})
	hs := newHTTPServer(srv)
	fmt.Fprintf(os.Stderr, "cisim: serving on http://%s (api v%d; queue %d; SIGTERM drains)\n",
		bound, api.Version, depth)

	// Serve until a signal arrives. SIGTERM and SIGINT share the drain
	// path, exactly as `cisim run` treats them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately rather than re-draining

	fmt.Fprintln(os.Stderr, "cisim: draining (queued sweeps cancelled, in-flight jobs completing)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain order: stop the sweep machinery first so event streams reach
	// EOF, then close the HTTP side (which waits for those streams'
	// handlers to return).
	derr := srv.Shutdown(dctx)
	herr := hs.Shutdown(dctx)
	if derr != nil {
		return derr
	}
	if herr != nil && !errors.Is(herr, http.ErrServerClosed) {
		return herr
	}
	fmt.Fprintln(os.Stderr, "cisim: drain complete")
	if st := runner.Artifacts.Store(); st != nil {
		h := serve.StoreHealth(st)
		fmt.Fprintf(os.Stderr, "cisim: store %s: %d hits, %d misses, %d puts, %d heals, %d evictions, %d B read, %d B written\n",
			h.Dir, h.Hits, h.Misses, h.Puts, h.Heals, h.Evictions, h.BytesRead, h.BytesWritten)
	}
	return nil
}

// The daemon's connection timeouts. A client that stalls before
// finishing its request is cut off instead of pinning a connection and a
// goroutine. There is deliberately no WriteTimeout: it would cancel a
// streaming handler's context at the deadline, ending a long sweep's
// /events stream mid-sweep. The read deadlines end once the request is
// read, so they never touch a response.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the daemon's handler in an http.Server with the
// connection timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
}

// cmdVersion prints what /version serves: module, build version,
// toolchain, VCS revision when stamped, and the API schema version.
func cmdVersion() error {
	v := api.Build()
	fmt.Printf("%s %s %s api=v%d", v.Module, v.Version, v.GoVersion, v.API)
	if v.Revision != "" {
		rev := v.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Printf(" rev=%s", rev)
		if v.Modified {
			fmt.Print("+dirty")
		}
	}
	fmt.Println()
	return nil
}

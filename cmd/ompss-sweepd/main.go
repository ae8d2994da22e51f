// Command ompss-sweepd is the campaign coordinator: it serves one
// campaign store directory over the control-plane HTTP API
// (internal/sweepd), so ompss-sweep claimants and watchers on hosts
// with no shared filesystem can join the campaign with
// -store http://host:port.
//
// The daemon is a relay, not a database: the directory stays the
// single source of truth (cells, lease files, journal, manifest), so
// local dir:// claimants on the daemon's host and remote http://
// claimants coordinate correctly against the same campaign, and the
// daemon can be restarted at any time without losing anything.
//
// Long campaigns keep their journal bounded with -journal-rotate:
// claimants appending through this daemon spill into closed segments
// at the threshold, and each rotation folds the segments into a
// checkpoint (see internal/journal). A failed compaction pass is
// printed on stderr when the daemon shuts down; it never fails an
// append.
//
// Usage:
//
//	ompss-sweepd -dir /var/ompss/campaign -addr :8427
//	ompss-sweepd -dir /var/ompss/campaign -journal-rotate 1048576
package main

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

	"repro/internal/exp"
	"repro/internal/sweepd"
)

func main() {
	dirFlag := flag.String("dir", "", "campaign store directory to serve (required)")
	addrFlag := flag.String("addr", ":8427", "listen address (host:port)")
	rotateFlag := flag.Int64("journal-rotate", 0,
		"rotate journal files appended via this daemon once they would exceed `bytes`, folding the closed segments into a checkpoint (0 = never)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: ompss-sweepd -dir DIR [-addr HOST:PORT] [-journal-rotate BYTES]\n\n"+
				"Serve a campaign store directory to ompss-sweep fleets over HTTP.\n"+
				"Claimants join with: ompss-sweep -store http://HOST:PORT -claim ...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *dirFlag == "" {
		fmt.Fprintln(os.Stderr, "ompss-sweepd: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	store, err := exp.OpenDirStore(*dirFlag)
	if err != nil {
		fatal(err)
	}
	defer func() {
		// Closing the claimants' journal writers reports any compaction
		// pass that failed while they appended.
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ompss-sweepd: %v\n", err)
		}
	}()
	store.SetJournalRotateBytes(*rotateFlag)
	srv := sweepd.NewServer(store)
	defer srv.Close()

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv}
	// The ready line carries the bound address so scripts can listen on
	// :0 and scrape the real port.
	fmt.Fprintf(os.Stderr, "ompss-sweepd: serving dir=%s addr=%s\n",
		store.Dir(), ln.Addr().String())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "ompss-sweepd: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			// Requests still open after the grace period are cut.
			hs.Close()
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ompss-sweepd: %v\n", err)
	os.Exit(1)
}

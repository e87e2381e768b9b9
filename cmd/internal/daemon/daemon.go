// Package daemon is the one place the daemons' main functions share:
// it turns SIGINT and SIGTERM into a cancelled context and a returned
// error into a non-zero exit. Both paths leave the daemon's run
// function by returning, so its deferred Close calls run and a stopped
// process still says Goodbye instead of leaving downstream replicas to
// hold dead state for a full TTL.
package daemon

import (
	"context"
	"log"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a context cancelled by SIGINT (ctrl-C) or
// SIGTERM (kill, systemd, docker stop).
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Main runs a daemon: run parses args, serves until ctx is cancelled,
// and returns nil, or returns the error that stopped it early.
func Main(run func(ctx context.Context, args []string) error) {
	ctx, stop := SignalContext()
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		log.Fatal(err)
	}
}

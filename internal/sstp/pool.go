package sstp

import (
	"sync"

	"softstate/internal/netio"
)

// pktPool recycles wire-encode buffers for the control paths (NACKs,
// queries, digests, reports, summaries), which are sent from several
// goroutines. The announcement hot path does not use the pool — the
// sender owns a dedicated buffer there.
var pktPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// readBufPool recycles the netio.MaxDatagram read buffers used by the
// sender and receiver read loops, so short-lived endpoints (load
// harnesses, per-session receivers) do not each burn a fresh 64 KiB
// allocation.
var readBufPool = sync.Pool{New: func() any {
	b := make([]byte, netio.MaxDatagram)
	return &b
}}

package sstp

import "sync"

// pktPool recycles wire-encode buffers for the control paths (NACKs,
// queries, digests, reports, summaries), which are sent from several
// goroutines. The announcement hot path does not use the pool — the
// sender owns a dedicated buffer there.
var pktPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

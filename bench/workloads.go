package main

import "fmt"

func runAnnounceFlood(e *env) (*outcome, error) {
	return runFlood(e, floodShape{name: "announce_flood", records: e.pick(262144, 2048), rate: 400e6}, e.tracer(64))
}

func runCatchupRepair(e *env) (*outcome, error) {
	return runFlood(e, floodShape{name: "catchup_repair", records: e.pick(262144, 2048), feedback: true, rate: 100e6}, e.tracer(64))
}

func runUDPFlood(e *env) (*outcome, error) {
	// Never traced: a conn wrapper would defeat netio's *net.UDPConn
	// fast path, the very thing this workload is here to measure.
	return runFlood(e, floodShape{name: "udp_flood", records: e.pick(65536, 2048), udp: true, rate: 400e6}, nil)
}

// runTraced is the per-layer run: the workload once untraced and once
// with every conn and callback recorded, each for half the window, so
// the tracing overhead is the difference between two passes of one
// process; then the layer probes.
func runTraced(e *env, w *workloadDef) (*outcome, error) {
	half := *e
	half.seconds = e.seconds / 2
	plain, err := w.run(&half)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	out := plain
	if w.Name != "udp_flood" {
		half.tr = newTracer(1)
		if out, err = w.run(&half); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		sum := half.tr.build()
		if out.spanFile, err = sum.write(e.outDir, w.Name, e.seed); err != nil {
			return nil, err
		}
		sum.layerMetrics(out.layer)
		if sum.dropped > 0 {
			out.errorf("trace dropped %d events past its %d-event bound", sum.dropped, maxEvents)
		}
		out.attempted += plain.attempted
		out.failed += plain.failed
		out.errs = append(out.errs, plain.errs...)
		for k, v := range plain.dur {
			out.dur["untraced_"+k] = v
		}
	}
	m := out.layer
	m["bench.failed_fraction"] = ratio(float64(out.failed), float64(out.attempted))
	base := plain.e2e["cpu_us_per_record"]
	m["bench.trace_overhead_fraction"] = ratio(out.e2e["cpu_us_per_record"]-base, base)
	if err := runProbes(e, m); err != nil {
		return nil, err
	}
	// What the probes say one record costs along the bulk path —
	// pick, encode, its share of a datagram, decode, apply, digest
	// insert — against what the process was charged for it.
	path := m["sched.pick_ns_per_op"] + m["protocol.encode_ns_per_record"] +
		ratio(m["transport.mem_ns_per_datagram"], m["sstp.records_per_datagram"]) +
		m["protocol.decode_ns_per_record"] + m["table.apply_ns_per_op"] + m["namespace.put_ns_per_op"]
	m["bench.layer_cpu_coverage"] = ratio(path, base*1e3)
	return out, nil
}

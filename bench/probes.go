package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"softstate/internal/congestion"
	"softstate/internal/fabric"
	"softstate/internal/namespace"
	"softstate/internal/netio"
	"softstate/internal/obs"
	"softstate/internal/protocol"
	"softstate/internal/sched"
	"softstate/internal/staleness"
	"softstate/internal/table"
	"softstate/internal/transport"
)

// The layer probes time calls into each module's exported functions,
// from outside, on inputs shaped like the flood workloads' (wideKey
// names, 32-byte values). They say what one operation of a layer costs
// in isolation; the traced run says how often it happens and how long
// work waited around it.

// probe runs batches of n calls of fn until dur has been spent inside
// them and returns the cost of one call. reset, if non-nil, runs
// untimed before each batch (a fresh table to insert into).
func probe(dur time.Duration, n int, reset func(), fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var spent time.Duration
	var ops, mallocs uint64
	var ms runtime.MemStats
	for spent < dur {
		if reset != nil {
			reset()
		}
		runtime.ReadMemStats(&ms)
		m0, t0 := ms.Mallocs, time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		spent += time.Since(t0)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		ops += uint64(n)
	}
	return float64(spent.Nanoseconds()) / float64(ops), float64(mallocs) / float64(ops)
}

// runProbes fills every probe-backed per-layer row.
func runProbes(e *env, m map[string]float64) error {
	dur := 200 * time.Millisecond
	nkeys := 262144
	if e.toy {
		dur, nkeys = 2*time.Millisecond, 4096
	}
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = wideKey(i)
	}
	value := encodeValue(nil, 32, 1, 0)

	probeProtocol(dur, keys, value, m)
	probeTable(e, dur, keys, value, m)
	probeNamespace(dur, keys, value, m)
	probeSmall(dur, keys, m)
	if err := probeTransport(dur, value, m); err != nil {
		return err
	}
	return probeNetio(dur, m)
}

func probeProtocol(dur time.Duration, keys []string, value []byte, m map[string]float64) {
	hdr := protocol.Header{Session: 77, Sender: 1, Seq: 1, Scope: protocol.DefaultScope}
	// As many records as the sender's MTU budget admits under
	// CoalesceRecords 32 — the datagram the flood workloads carry.
	budget := 1400 - protocol.HeaderLen - 2
	var recs []protocol.Data
	size := 0
	for i := 0; len(recs) < coalesceRecords; i++ {
		sz := protocol.BatchRecordSize(len(keys[i]), len(value))
		if size+sz > budget {
			break
		}
		size += sz
		recs = append(recs, protocol.Data{Key: keys[i], Ver: uint64(i + 1), TTLms: 600_000, BornMs: 1, Value: value})
	}
	per := float64(len(recs))
	var frames, dgram []byte
	encode := func(int) {
		frames = frames[:0]
		for i := range recs {
			frames = protocol.AppendBatchRecord(frames, &recs[i])
		}
		dgram = protocol.AppendBatchDatagram(dgram[:0], hdr, len(recs), frames)
	}
	ns, al := probe(dur, 256, nil, encode)
	m["protocol.encode_ns_per_record"], m["protocol.encode_allocs_per_record"] = ns/per, al/per
	payload := 0
	for i := range recs {
		payload += len(recs[i].Key) + len(recs[i].Value)
	}
	m["protocol.framing_bytes_per_record"] = float64(len(dgram)-payload) / per

	dec := protocol.NewDecoder()
	decode := func(int) {
		if _, _, err := dec.Decode(dgram); err != nil {
			panic(err) // our own encoding: a bug, not an input
		}
	}
	ns, al = probe(dur, 256, nil, decode)
	m["protocol.decode_ns_per_record"], m["protocol.decode_allocs_per_record"] = ns/per, al/per

	var single []byte
	ns, _ = probe(dur, 4096, nil, func(int) {
		frames = protocol.AppendBatchRecord(frames[:0], &recs[0])
		single = protocol.AppendDataDatagram(single[:0], hdr, frames[2:])
	})
	m["protocol.encode_b1_ns_per_record"] = ns
	ns, _ = probe(dur, 4096, nil, func(int) {
		if _, _, err := dec.Decode(single); err != nil {
			panic(err)
		}
	})
	m["protocol.decode_b1_ns_per_record"] = ns
}

func probeTable(e *env, dur time.Duration, keys []string, value []byte, m map[string]float64) {
	n := len(keys)
	tkeys := make([]table.Key, n)
	for i, k := range keys {
		tkeys[i] = table.Key(k)
	}
	var pub *table.StripedPublisher
	fresh := func() { pub = table.NewStripedPublisher(e.stripes) }
	m["table.put_ns_per_op"], m["table.put_allocs_per_op"] = probe(dur, n, fresh, func(i int) {
		pub.Put(tkeys[i], value, 1, 600)
	})

	// The same inserts from GOMAXPROCS goroutines, disjoint ranges:
	// wall time per insert, so lock contention shows as no speed-up.
	var spent time.Duration
	ops := 0
	for spent < dur {
		fresh()
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < e.procs; g++ {
			lo, hi := n*g/e.procs, n*(g+1)/e.procs
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					pub.Put(tkeys[i], value, 1, 600)
				}
			}()
		}
		wg.Wait()
		spent += time.Since(t0)
		ops += n
	}
	m["table.put_parallel_ns_per_op"] = float64(spent.Nanoseconds()) / float64(ops)

	// pub is full now: overwrite, then sweep with nothing due.
	m["table.update_ns_per_op"], _ = probe(dur, n, nil, func(i int) { pub.Put(tkeys[i], value, 2, 600) })
	m["table.sweep_idle_ns_per_op"], _ = probe(dur, 64, nil, func(int) { pub.Sweep(3) })

	var sub *table.StripedSubscriber
	m["table.apply_ns_per_op"], _ = probe(dur, n, func() { sub = table.NewStripedSubscriber(e.stripes) }, func(i int) {
		sub.ApplyBorn(tkeys[i], value, 1, 1, 600, 1)
	})

	pub, sub = nil, nil
	before := heapInuse()
	fresh()
	for i := range tkeys {
		pub.Put(tkeys[i], value, 1, 600)
	}
	m["table.heap_bytes_per_record"] = (heapInuse() - before) / float64(n)
	runtime.KeepAlive(pub)
}

func probeNamespace(dur time.Duration, keys []string, value []byte, m map[string]float64) {
	n := len(keys)
	var tree *namespace.Tree
	put := func(i int) {
		if err := tree.Put(keys[i], value, 1); err != nil {
			panic(err) // wideKey never collides with an interior node
		}
	}
	m["namespace.put_ns_per_op"], m["namespace.put_allocs_per_op"] = probe(dur, n, func() { tree = namespace.New(namespace.HashSHA256) }, put)

	// tree holds every key and every node is dirty: one full rehash.
	t0 := time.Now()
	tree.RootDigest()
	m["namespace.root_alldirty_ns"] = float64(time.Since(t0).Nanoseconds())
	ver := uint64(1)
	m["namespace.root_1dirty_ns"], _ = probe(dur, 64, nil, func(i int) {
		ver++
		if err := tree.Put(keys[i], value, ver); err != nil {
			panic(err)
		}
		tree.RootDigest()
	})

	// The root has 256 children: the widest node a descent visits.
	var kids []namespace.Child
	m["namespace.children_ns_per_op"], _ = probe(dur, 64, nil, func(int) {
		kids, _ = tree.AppendChildren(kids[:0], "")
	})
	remote := append([]namespace.Child(nil), kids...)
	if len(remote) > 0 {
		remote[0].Digest[0] ^= 0xff
	}
	m["namespace.diff_ns_per_op"], _ = probe(dur, 64, nil, func(int) {
		if _, _, err := tree.DiffChildren("", remote); err != nil {
			panic(err)
		}
	})
}

// probeSmall covers the layers whose one operation is tens of
// nanoseconds: scheduler, token bucket, fair queue, estimators.
func probeSmall(dur time.Duration, keys []string, m map[string]float64) {
	// The sender's sharing tree: root → class → {hot 0.9, cold 0.1}.
	h := sched.NewHierarchy(func() sched.Scheduler { return sched.NewStride() })
	class := h.AddNode(h.Root(), "data", 1)
	h.AddLeaf(class, "data/hot", 0.9)
	h.AddLeaf(class, "data/cold", 0.1)
	ready := func(int) bool { return true }
	m["sched.pick_ns_per_op"], _ = probe(dur, 4096, nil, func(int) {
		if leaf, ok := h.Pick(ready); ok {
			h.Charge(leaf, 616)
		}
	})

	bucket := congestion.NewTokenBucket(1e9, 64*8*1500)
	now := 0.0
	m["congestion.allow_ns_per_op"], _ = probe(dur, 4096, nil, func(int) {
		now += 12e-6
		bucket.Allow(now, 8*1400)
	})

	fq := fabric.NewFQ(1400, 4)
	for s := uint64(0); s < 256; s++ {
		if err := fq.AddTenant(1000+s, 1); err != nil {
			panic(err)
		}
	}
	pkt := make([]byte, 200)
	dest := transport.MemAddr("r")
	m["fabric.fq_ns_per_packet"], _ = probe(dur, 4096, nil, func(i int) {
		fq.Enqueue(1000+uint64(i%256), pkt, dest)
		if p, ok := fq.Dequeue(); ok {
			fq.Release(p)
		}
	})

	est := staleness.NewEstimator(0)
	m["staleness.observe_ns_per_op"], _ = probe(dur, 4096, nil, func(i int) {
		t := 1000 + float64(i)*1e-3
		est.ObserveTVisAt(t, 0.02)
		est.ConfirmAt(1, keys[i%1024], t)
	})

	hist := obs.NewHistogram(nil)
	m["obs.observe_ns_per_op"], _ = probe(dur, 4096, nil, func(i int) { hist.Observe(float64(i%512) * 1e-3) })
}

func probeTransport(dur time.Duration, value []byte, m map[string]float64) error {
	dgram := protocol.Encode(protocol.Header{Session: 77, Sender: 1}, &protocol.Data{Key: wideKey(0), Ver: 1, Value: value})
	buf := make([]byte, 2048)

	nw := transport.NewMemNetwork(1)
	a, b := nw.Endpoint("a"), nw.Endpoint("b")
	var ioErr error
	pingpong := func(tx, rx transport.Conn, to net.Addr) func(int) {
		return func(int) {
			if _, err := tx.WriteTo(dgram, to); err != nil {
				ioErr = err
			}
			if _, _, err := rx.ReadFrom(buf); err != nil {
				ioErr = err
			}
		}
	}
	m["transport.mem_ns_per_datagram"], m["transport.mem_allocs_per_datagram"] = probe(dur, 1024, nil, pingpong(a, b, transport.MemAddr("b")))
	if ioErr != nil {
		return fmt.Errorf("probe transport mem: %w", ioErr)
	}

	udp, err := transport.New("udp", transport.Options{})
	if err != nil {
		return err
	}
	ua, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("probe transport udp: %w", err)
	}
	defer ua.Close()
	ub, err := udp.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("probe transport udp: %w", err)
	}
	defer ub.Close()
	// Loopback delivers inside the sender's write; the deadline only
	// keeps a lost datagram from hanging the probe.
	if err := ub.SetReadDeadline(time.Now().Add(dur + 10*time.Second)); err != nil {
		return err
	}
	m["transport.udp_ns_per_datagram"], _ = probe(dur, 1024, nil, pingpong(ua, ub, ub.LocalAddr()))
	if ioErr != nil {
		return fmt.Errorf("probe transport udp: %w", ioErr)
	}
	return nil
}

// probeNetio times BatchConn writes at batch 1 and 16 into a loopback
// socket that a reader goroutine keeps drained, and the reader's own
// cost per datagram while the writer keeps it busy.
func probeNetio(dur time.Duration, m map[string]float64) error {
	rc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("probe netio: %w", err)
	}
	defer rc.Close()
	wc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("probe netio: %w", err)
	}
	defer wc.Close()
	dest := rc.LocalAddr()

	var readNs, readN atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		br := netio.Wrap(rc)
		const nb = 8 // the receiver's recvBatch
		bufs := make([][]byte, nb)
		for i := range bufs {
			bufs[i] = make([]byte, 2048)
		}
		sizes, addrs := make([]int, nb), make([]net.Addr, nb)
		for {
			t0 := time.Now()
			n, err := br.ReadBatch(bufs, sizes, addrs)
			if err != nil {
				return // closed (or deadline): the probe is over
			}
			readNs.Add(int64(time.Since(t0)))
			readN.Add(int64(n))
		}
	}()

	bw := netio.Wrap(wc)
	pkts := make([][]byte, batchDatagrams)
	for i := range pkts {
		pkts[i] = make([]byte, 1300)
	}
	var werr error
	ns1, _ := probe(dur, 256, nil, func(int) {
		if _, err := bw.WriteBatch(dest, pkts[:1]); err != nil {
			werr = err
		}
	})
	readNs.Store(0)
	readN.Store(0)
	ns16, allocs16 := probe(dur, 64, nil, func(int) {
		if _, err := bw.WriteBatch(dest, pkts); err != nil {
			werr = err
		}
	})
	// The reader books a batch only once ReadBatch has returned; after a
	// very short probe (bench_test.go) it may not have come round yet.
	waitFor(time.Second, time.Millisecond, func() bool { return readN.Load() > 0 })
	read, readCount := readNs.Load(), readN.Load()
	if err := rc.SetReadDeadline(time.Now()); err != nil {
		return err
	}
	wg.Wait()
	if werr != nil {
		return fmt.Errorf("probe netio: %w", werr)
	}
	m["netio.write_ns_per_datagram_b1"] = ns1
	m["netio.write_ns_per_datagram_b16"] = ns16 / batchDatagrams
	// While batch-16 writes flood it the reader never waits long, so
	// time inside ReadBatch over datagrams read is its cost per datagram.
	m["netio.read_ns_per_datagram"] = ratio(float64(read), float64(readCount))
	m["netio.allocs_per_datagram"] = allocs16 / batchDatagrams // process-wide: writer and reader
	return nil
}

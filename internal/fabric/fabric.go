package fabric

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"softstate/internal/congestion"
	"softstate/internal/netio"
	"softstate/internal/obs"
	"softstate/internal/sstp"
	"softstate/internal/transport"
)

// Config parameterizes a session fabric.
type Config struct {
	// Conn is the shared link — any transport.Conn (UDP keeps the
	// sendmmsg batch path; framed TCP/TLS streams and MemConns fall
	// back to one write per datagram). The fabric owns its read side
	// (feedback demuxed to tenants' driven senders) and drains the
	// fair-queueing scheduler into it via one batched writer. The
	// fabric never closes it; the opener does.
	Conn transport.Conn

	// LinkRate caps the aggregate transmit rate in bits/second across
	// all tenants (0 = unpaced). Tenants' own TotalRate buckets meter
	// their demand; LinkRate models the shared link's capacity — the
	// resource the fair queueing divides.
	LinkRate float64

	// BatchDatagrams is an upper bound on how many datagrams are
	// drained per write (one sendmmsg on Linux); under LinkRate a write
	// carries what the link bucket admits at that wake-up. Default 16.
	BatchDatagrams int

	// EstimatedCost is the FQ scheduler's G: the estimated service
	// cost of one datagram in bytes, used for virtual-finish
	// estimation before a packet is picked (actual sizes are charged
	// on dequeue). Default 1400, the coalescing MTU.
	EstimatedCost float64

	// TenantQueue bounds each tenant's fabric-side queue in datagrams
	// (default 4). Small on purpose: a tenant's backlog belongs in its
	// own sender, where the hot/cold scheduler can keep reordering it;
	// the fabric queue is just enough runway to keep the link busy.
	TenantQueue int

	// FIFO selects the arrival-order baseline scheduler instead of
	// fair queueing — the no-isolation behavior of a naive shared
	// socket, kept measurable so benchmarks can show the starvation
	// FQ removes. Under FIFO the shared queue is TenantQueue packets
	// per registered tenant, claimable by anyone.
	FIFO bool

	// StarveAfter is the starvation gauge's threshold: a tenant whose
	// head-of-queue packet has waited longer counts as starved
	// (default 1s).
	StarveAfter time.Duration

	// Obs receives sstp_fabric_* metrics (nil-safe).
	Obs *obs.Registry
}

func (c Config) withDefaults() (Config, error) {
	if c.Conn == nil {
		return c, fmt.Errorf("fabric: Conn is required")
	}
	if c.LinkRate < 0 {
		return c, fmt.Errorf("fabric: negative LinkRate %v", c.LinkRate)
	}
	if c.BatchDatagrams <= 0 {
		c.BatchDatagrams = 16
	}
	if c.BatchDatagrams > 256 {
		c.BatchDatagrams = 256
	}
	if c.EstimatedCost <= 0 {
		c.EstimatedCost = 1400
	}
	if c.TenantQueue <= 0 {
		c.TenantQueue = 4
	}
	if c.StarveAfter <= 0 {
		c.StarveAfter = time.Second
	}
	return c, nil
}

// ParseWeights expands a comma-separated weight list cyclically over
// n tenants: "1,1,4" over 5 tenants gives 1, 1, 4, 1, 1 — sstpd's
// -tenant-weights syntax.
func ParseWeights(spec string, n int) ([]float64, error) {
	parts := strings.Split(spec, ",")
	base := make([]float64, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("fabric: bad tenant weight %q", p)
		}
		base = append(base, w)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out, nil
}

// tenant is one session's registration: its driven sender, its
// destination on the shared link, and its per-tenant instruments.
type tenant struct {
	session uint64
	sender  *sstp.Sender
	dest    net.Addr

	mBytes  *obs.Counter
	mDgrams *obs.Counter
	mDepth  *obs.Gauge
	mVTLag  *obs.Gauge
	mWeight *obs.Gauge
	mStarve *obs.Gauge
}

// fabricMetrics is the aggregate sstp_fabric_* catalog.
type fabricMetrics struct {
	tenants  *obs.Gauge
	dgrams   *obs.Counter
	bytes    *obs.Counter
	depth    *obs.Gauge
	starved  *obs.Gauge
	vtime    *obs.Gauge
	picks    *obs.Counter
	fullSkip *obs.Counter
}

// Fabric multiplexes many driven SSTP senders over one shared link:
// a single batched send loop pulls each tenant's next wire-ready
// datagram into the fair-queueing scheduler and drains it under the
// link-rate bucket, charging each tenant the actual bytes it sent.
// Feedback arriving on the shared socket is demuxed per session back
// to each tenant's sender.
//
// Register every tenant with AddSender before Start; weights may be
// retuned at any time with SetWeight.
type Fabric struct {
	cfg    Config
	bconn  *netio.BatchConn
	demux  *Demux
	fq     *FQ
	bucket *congestion.TokenBucket // link pacer, owned by sendLoop; nil = unpaced

	mu        sync.Mutex
	tenants   []*tenant
	bySession map[uint64]*tenant
	started   bool

	m         fabricMetrics
	statBuf   []TenantStat
	waitTimer *time.Timer

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a fabric over the shared conn. Call AddSender for each
// tenant, then Start.
func New(cfg Config) (*Fabric, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		cfg:       cfg,
		bconn:     netio.Wrap(cfg.Conn),
		demux:     NewDemux(cfg.Conn, cfg.Obs),
		bySession: make(map[uint64]*tenant),
		done:      make(chan struct{}),
	}
	if cfg.FIFO {
		f.fq = NewFIFO(cfg.EstimatedCost, cfg.TenantQueue)
	} else {
		f.fq = NewFQ(cfg.EstimatedCost, cfg.TenantQueue)
	}
	if cfg.LinkRate > 0 {
		// Depth: four full batches (sendLoop's pacing quantum is at
		// most one).
		burst := float64(4 * cfg.BatchDatagrams * 8 * 1500)
		f.bucket = congestion.NewTokenBucket(cfg.LinkRate, burst)
	}
	reg := cfg.Obs
	f.m = fabricMetrics{
		tenants:  reg.Gauge("sstp_fabric_tenants"),
		dgrams:   reg.Counter("sstp_fabric_datagrams_total"),
		bytes:    reg.Counter("sstp_fabric_tx_bytes_total"),
		depth:    reg.Gauge("sstp_fabric_queue_depth"),
		starved:  reg.Gauge("sstp_fabric_starved_tenants"),
		vtime:    reg.Gauge("sstp_fabric_vtime"),
		picks:    reg.Counter("sstp_fabric_picks_total"),
		fullSkip: reg.Counter("sstp_fabric_queue_full_total"),
	}
	return f, nil
}

// AddSender creates a driven SSTP sender for one tenant session and
// registers it with the scheduler at the given weight. cfg.Conn is
// replaced with the fabric's per-session feedback port (the tenant's
// read loop hears only its own session's NACKs/queries/reports);
// cfg.Dest addresses the tenant's receivers over the shared link.
// All AddSender calls must precede Start.
func (f *Fabric) AddSender(cfg sstp.SenderConfig, weight float64) (*sstp.Sender, error) {
	f.mu.Lock()
	started := f.started
	f.mu.Unlock()
	if started {
		return nil, fmt.Errorf("fabric: AddSender after Start")
	}
	if cfg.Dest == nil {
		return nil, fmt.Errorf("fabric: tenant %d needs a Dest", cfg.Session)
	}
	if err := f.fq.AddTenant(cfg.Session, weight); err != nil {
		return nil, err
	}
	cfg.Conn = f.demux.Port(cfg.Session)
	s, err := sstp.NewSender(cfg)
	if err != nil {
		return nil, err
	}
	s.StartDriven()
	label := strconv.FormatUint(cfg.Session, 10)
	reg := f.cfg.Obs
	t := &tenant{
		session: cfg.Session,
		sender:  s,
		dest:    cfg.Dest,
		mBytes:  reg.Counter("sstp_fabric_tenant_tx_bytes_total", "tenant", label),
		mDgrams: reg.Counter("sstp_fabric_tenant_datagrams_total", "tenant", label),
		mDepth:  reg.Gauge("sstp_fabric_tenant_queue_depth", "tenant", label),
		mVTLag:  reg.Gauge("sstp_fabric_tenant_vt_lag", "tenant", label),
		mWeight: reg.Gauge("sstp_fabric_tenant_weight", "tenant", label),
		mStarve: reg.Gauge("sstp_fabric_tenant_starved", "tenant", label),
	}
	t.mWeight.Set(weight)
	f.mu.Lock()
	f.tenants = append(f.tenants, t)
	f.bySession[cfg.Session] = t
	f.m.tenants.Set(float64(len(f.tenants)))
	f.mu.Unlock()
	return s, nil
}

// SetWeight retunes a tenant's link share at runtime.
func (f *Fabric) SetWeight(session uint64, weight float64) error {
	if err := f.fq.SetWeight(session, weight); err != nil {
		return err
	}
	f.mu.Lock()
	if t := f.bySession[session]; t != nil {
		t.mWeight.Set(weight)
	}
	f.mu.Unlock()
	return nil
}

// Tenants returns the number of registered tenants.
func (f *Fabric) Tenants() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tenants)
}

// TenantStats returns a scheduler-side snapshot per tenant.
func (f *Fabric) TenantStats() []TenantStat {
	return f.fq.Stats(nil, f.cfg.StarveAfter)
}

// Drops returns the demux drop counters (unknown-session, port
// overflow, non-SSTP).
func (f *Fabric) Drops() (unknown, overflow, foreign uint64) {
	return f.demux.Drops()
}

// Start launches the shared send loop.
func (f *Fabric) Start() {
	f.mu.Lock()
	f.started = true
	f.mu.Unlock()
	f.wg.Add(1)
	go f.sendLoop()
}

// Close stops the shared loop, then closes every tenant sender (each
// emits its final Goodbye directly on the shared socket — the loop
// must already be stopped so no announcement can follow a Goodbye),
// then the demux. The shared conn itself stays open for its owner.
func (f *Fabric) Close() error {
	f.once.Do(func() {
		close(f.done)
		f.wg.Wait()
		f.mu.Lock()
		tenants := append([]*tenant(nil), f.tenants...)
		f.mu.Unlock()
		// Tenant closes run concurrently: each blocks for its recv
		// loop's read-deadline tick, and a thousand sequential 200ms
		// waits would dominate shutdown.
		var wg sync.WaitGroup
		for _, t := range tenants {
			wg.Add(1)
			go func(t *tenant) {
				defer wg.Done()
				_ = t.sender.Close()
			}(t)
		}
		wg.Wait()
		_ = f.demux.Close()
	})
	return nil
}

// sendLoop is the fabric's single writer: wait until the link bucket
// holds a pacing quantum, fill the scheduler from every tenant's
// driven sender, drain by virtual-finish order while the link balance
// is positive (at most one batch), write that with one batched syscall
// at once, and charge each tenant its actual bytes. Pacing comes
// before the pick, so nothing dequeued ever waits on the link bucket.
func (f *Fabric) sendLoop() {
	defer f.wg.Done()
	nb := f.cfg.BatchDatagrams
	batchBits := float64(nb * 8 * 1500) // the pacing quantum's cap
	bufs := make([][]byte, 0, nb)
	dests := make([]net.Addr, 0, nb)
	picked := make([]*Packet, 0, nb)
	nextGauges := time.Now()
	for {
		select {
		case <-f.done:
			return
		default:
		}
		wall := time.Now()
		if wall.After(nextGauges) {
			f.refreshGauges()
			nextGauges = wall.Add(250 * time.Millisecond)
		}
		now := float64(wall.UnixNano()) / 1e9 // the link bucket's clock
		if f.bucket != nil {
			if wait := f.bucket.PaceWait(now, batchBits); wait > 0 {
				if !f.sleep(time.Duration(wait * float64(time.Second))) {
					return
				}
				continue
			}
		}

		// Fill: pull each tenant's next datagrams while its queue has
		// room. Backpressure is Room, not blocking — a tenant whose
		// queue is full keeps its backlog in its own sender.
		filled := false
		f.mu.Lock()
		tenants := f.tenants
		f.mu.Unlock()
		for _, t := range tenants {
			for f.fq.Room(t.session) {
				buf, ok := t.sender.NextWire()
				if !ok {
					break
				}
				if !f.fq.Enqueue(t.session, buf, t.dest) {
					f.m.fullSkip.Inc()
					break
				}
				filled = true
			}
		}

		// Drain one batch in virtual-finish order.
		bufs, dests, picked = bufs[:0], dests[:0], picked[:0]
		for len(picked) < nb && (f.bucket == nil || f.bucket.Balance(now) > 0) {
			p, ok := f.fq.Dequeue()
			if !ok {
				break
			}
			picked = append(picked, p)
			bufs = append(bufs, p.Bytes())
			dests = append(dests, p.Dest)
			if f.bucket != nil {
				f.bucket.Take(now, float64(8*len(p.Bytes())))
			}
			f.m.picks.Inc()
		}
		if len(picked) == 0 {
			if !filled {
				// Nothing anywhere: nap briefly (tenant buckets refill,
				// summaries come due on their own clocks).
				if !f.sleep(2 * time.Millisecond) {
					return
				}
			}
			continue
		}
		sent, _ := f.bconn.WriteBatchAddrs(bufs, dests)
		f.mu.Lock()
		for i, p := range picked {
			if i < sent {
				t := f.bySession[p.Session]
				n := uint64(len(p.Bytes()))
				t.mBytes.Add(n)
				t.mDgrams.Inc()
				f.m.bytes.Add(n)
				f.m.dgrams.Inc()
			}
		}
		f.mu.Unlock()
		for _, p := range picked {
			f.fq.Release(p)
		}
	}
}

// refreshGauges publishes the scheduler snapshot to the registry.
func (f *Fabric) refreshGauges() {
	f.statBuf = f.fq.Stats(f.statBuf[:0], f.cfg.StarveAfter)
	starved := 0
	depth := 0
	f.mu.Lock()
	for _, st := range f.statBuf {
		depth += st.Depth
		if st.Starved {
			starved++
		}
		t := f.bySession[st.Session]
		if t == nil {
			continue
		}
		t.mDepth.Set(float64(st.Depth))
		t.mVTLag.Set(st.VTLag)
		if st.Starved {
			t.mStarve.Set(1)
		} else {
			t.mStarve.Set(0)
		}
	}
	f.mu.Unlock()
	f.m.depth.Set(float64(depth))
	f.m.starved.Set(float64(starved))
	f.m.vtime.Set(f.fq.VTime())
}

// sleep waits for d or Close, reusing one timer. Returns false when
// the fabric closed while waiting.
func (f *Fabric) sleep(d time.Duration) bool {
	if f.waitTimer == nil {
		f.waitTimer = time.NewTimer(d)
	} else {
		f.waitTimer.Reset(d)
	}
	select {
	case <-f.done:
		if !f.waitTimer.Stop() {
			<-f.waitTimer.C
		}
		return false
	case <-f.waitTimer.C:
		return true
	}
}

// Package workload generates the application workloads the paper
// motivates soft-state transport with: MBone session-directory
// announcements (sdr/SAP), routing-table advertisements (RIP/BGP-like
// periodically changing state), stock-quote dissemination
// (PointCast-style information feeds), and the plain Poisson
// record-arrival process of the analytic model.
//
// A workload is a deterministic stream of timestamped table operations
// that examples and experiments replay into a publisher.
package workload

import (
	"fmt"
	"math"

	"softstate/internal/xrand"
)

// Op is a table operation kind.
type Op int

// Operation kinds.
const (
	OpPut Op = iota
	OpDelete
)

// Event is one timestamped operation on the publisher's table.
type Event struct {
	At       float64 // seconds from stream start
	Op       Op
	Key      string
	Value    []byte
	Lifetime float64 // record lifetime in seconds (0 = immortal)
}

// Generator produces a time-ordered stream of events. Next returns
// ok=false when the stream is exhausted.
type Generator interface {
	Next() (Event, bool)
}

// Drain collects up to max events from g (all of them if max <= 0).
func Drain(g Generator, max int) []Event {
	var out []Event
	for {
		ev, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
		if max > 0 && len(out) >= max {
			return out
		}
	}
}

// --- Poisson ---

// Poisson emits new unique records as a Poisson process, each with an
// exponential lifetime — the workload of the paper's model (§2).
type Poisson struct {
	rnd       *xrand.Rand
	rate      float64 // records per second
	meanLife  float64 // mean lifetime (0 = immortal records)
	fixedLife bool
	valueLen  int
	horizon   float64
	now       float64
	seq       int
}

// NewPoisson returns a Poisson workload emitting `rate` records/s with
// the given mean lifetime and value size until the horizon.
func NewPoisson(rate, meanLife float64, valueLen int, horizon float64, rnd *xrand.Rand) *Poisson {
	if rate <= 0 || horizon <= 0 || valueLen < 0 || meanLife < 0 {
		panic(fmt.Sprintf("workload: bad Poisson params rate=%v life=%v len=%d horizon=%v",
			rate, meanLife, valueLen, horizon))
	}
	if rnd == nil {
		panic("workload: nil rand")
	}
	return &Poisson{rnd: rnd, rate: rate, meanLife: meanLife, valueLen: valueLen, horizon: horizon}
}

// Next implements Generator.
func (p *Poisson) Next() (Event, bool) {
	p.now += p.rnd.Exp(p.rate)
	if p.now > p.horizon {
		return Event{}, false
	}
	p.seq++
	life := p.meanLife
	if life > 0 && !p.fixedLife {
		life = p.rnd.Exp(1 / p.meanLife)
	}
	val := make([]byte, p.valueLen)
	for i := range val {
		val[i] = byte('a' + p.rnd.Intn(26))
	}
	return Event{
		At:       p.now,
		Op:       OpPut,
		Key:      fmt.Sprintf("records/r%08d", p.seq),
		Value:    val,
		Lifetime: life,
	}, true
}

// --- Session directory ---

// SessionDirectory models sdr-style MBone conference announcements:
// sessions are created with SDP-like descriptions and bounded
// durations; while live they are occasionally re-described (tool or
// address changes).
type SessionDirectory struct {
	rnd         *xrand.Rand
	newRate     float64 // new sessions per second
	meanLife    float64 // mean session duration
	updateRate  float64 // description changes per live session per second
	horizon     float64
	now         float64
	seq         int
	live        []sdrSession
	pendingUpds []Event
}

type sdrSession struct {
	key  string
	name string
	ends float64
}

// NewSessionDirectory returns an sdr-like workload.
func NewSessionDirectory(newRate, meanLife, updateRate, horizon float64, rnd *xrand.Rand) *SessionDirectory {
	if newRate <= 0 || meanLife <= 0 || updateRate < 0 || horizon <= 0 {
		panic("workload: bad session-directory params")
	}
	return &SessionDirectory{rnd: rnd, newRate: newRate, meanLife: meanLife, updateRate: updateRate, horizon: horizon}
}

var sdrTools = []string{"vat", "vic", "wb", "nte", "rat"}

func (s *SessionDirectory) describe(name string, ver int) []byte {
	tool := sdrTools[s.rnd.Intn(len(sdrTools))]
	addr := fmt.Sprintf("224.2.%d.%d/%d", s.rnd.Intn(256), s.rnd.Intn(256), 16384+2*s.rnd.Intn(8192))
	return []byte(fmt.Sprintf("v=0\ns=%s\nm=%s %s\na=rev:%d\n", name, tool, addr, ver))
}

// Next implements Generator.
func (s *SessionDirectory) Next() (Event, bool) {
	if len(s.pendingUpds) > 0 {
		ev := s.pendingUpds[0]
		s.pendingUpds = s.pendingUpds[1:]
		return ev, true
	}
	for {
		dt := s.rnd.Exp(s.newRate)
		next := s.now + dt
		if next > s.horizon {
			return Event{}, false
		}
		// Emit updates for live sessions that fall before the next
		// session creation (thinned per-session update processes).
		if s.updateRate > 0 && len(s.live) > 0 {
			mean := s.updateRate * float64(len(s.live)) * dt
			n := s.rnd.Poisson(mean)
			for i := 0; i < n && i < 16; i++ {
				sess := s.live[s.rnd.Intn(len(s.live))]
				at := s.now + s.rnd.Uniform(0, dt)
				if at < sess.ends && at <= s.horizon {
					s.pendingUpds = append(s.pendingUpds, Event{
						At: at, Op: OpPut, Key: sess.key,
						Value:    s.describe(sess.name, i+2),
						Lifetime: sess.ends - at,
					})
				}
			}
		}
		s.now = next
		// Retire ended sessions from the live list.
		alive := s.live[:0]
		for _, l := range s.live {
			if l.ends > s.now {
				alive = append(alive, l)
			}
		}
		s.live = alive

		s.seq++
		name := fmt.Sprintf("conf-%04d", s.seq)
		key := "sessions/" + name
		life := s.rnd.Exp(1 / s.meanLife)
		s.live = append(s.live, sdrSession{key: key, name: name, ends: s.now + life})
		ev := Event{
			At: s.now, Op: OpPut, Key: key,
			Value:    s.describe(name, 1),
			Lifetime: life,
		}
		if len(s.pendingUpds) > 0 && s.pendingUpds[0].At < ev.At {
			s.pendingUpds = append(s.pendingUpds, ev)
			first := s.pendingUpds[0]
			s.pendingUpds = s.pendingUpds[1:]
			return first, true
		}
		return ev, true
	}
}

// --- Routing table ---

// RoutingTable models RIP-like route advertisements: a fixed set of
// prefixes whose metrics drift, with occasional withdrawals (delete)
// and re-announcements.
type RoutingTable struct {
	rnd          *xrand.Rand
	prefixes     []string
	metrics      []int
	withdrawn    []bool
	changeRate   float64 // metric changes per second across the table
	withdrawProb float64 // probability a change is a withdrawal/restore
	horizon      float64
	now          float64
}

// NewRoutingTable returns a routing workload over n prefixes.
func NewRoutingTable(n int, changeRate, withdrawProb, horizon float64, rnd *xrand.Rand) *RoutingTable {
	if n <= 0 || changeRate <= 0 || withdrawProb < 0 || withdrawProb > 1 || horizon <= 0 {
		panic("workload: bad routing params")
	}
	rt := &RoutingTable{
		rnd: rnd, changeRate: changeRate, withdrawProb: withdrawProb, horizon: horizon,
		metrics: make([]int, n), withdrawn: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		rt.prefixes = append(rt.prefixes, fmt.Sprintf("routes/10.%d.%d.0-24", i/256, i%256))
		rt.metrics[i] = 1 + rnd.Intn(15)
	}
	return rt
}

// Prefixes returns the full prefix key set (for seeding the table).
func (rt *RoutingTable) Prefixes() []string {
	out := make([]string, len(rt.prefixes))
	copy(out, rt.prefixes)
	return out
}

// InitialEvents returns Put events at t=0 announcing every prefix.
func (rt *RoutingTable) InitialEvents() []Event {
	out := make([]Event, 0, len(rt.prefixes))
	for i, p := range rt.prefixes {
		out = append(out, Event{At: 0, Op: OpPut, Key: p, Value: rt.value(i)})
	}
	return out
}

func (rt *RoutingTable) value(i int) []byte {
	return []byte(fmt.Sprintf("metric=%d nexthop=192.168.0.%d", rt.metrics[i], 1+i%250))
}

// Next implements Generator.
func (rt *RoutingTable) Next() (Event, bool) {
	rt.now += rt.rnd.Exp(rt.changeRate)
	if rt.now > rt.horizon {
		return Event{}, false
	}
	i := rt.rnd.Intn(len(rt.prefixes))
	if rt.rnd.Bernoulli(rt.withdrawProb) {
		if rt.withdrawn[i] {
			rt.withdrawn[i] = false
			rt.metrics[i] = 1 + rt.rnd.Intn(15)
			return Event{At: rt.now, Op: OpPut, Key: rt.prefixes[i], Value: rt.value(i)}, true
		}
		rt.withdrawn[i] = true
		return Event{At: rt.now, Op: OpDelete, Key: rt.prefixes[i]}, true
	}
	if rt.withdrawn[i] {
		rt.withdrawn[i] = false
	}
	delta := rt.rnd.Intn(3) - 1
	rt.metrics[i] += delta
	if rt.metrics[i] < 1 {
		rt.metrics[i] = 1
	}
	if rt.metrics[i] > 15 {
		rt.metrics[i] = 15
	}
	return Event{At: rt.now, Op: OpPut, Key: rt.prefixes[i], Value: rt.value(i)}, true
}

// --- Stock ticker ---

// StockTicker models a quote-dissemination feed: a fixed symbol set
// whose prices follow geometric random walks; update frequency is
// Zipf-skewed across symbols (a few hot names dominate).
type StockTicker struct {
	rnd     *xrand.Rand
	symbols []string
	prices  []float64
	zipf    func() int
	rate    float64
	horizon float64
	now     float64
}

// NewStockTicker returns a ticker over n symbols updating at `rate`
// quotes per second until the horizon.
func NewStockTicker(n int, rate, horizon float64, rnd *xrand.Rand) *StockTicker {
	if n <= 0 || rate <= 0 || horizon <= 0 {
		panic("workload: bad ticker params")
	}
	st := &StockTicker{rnd: rnd, rate: rate, horizon: horizon}
	for i := 0; i < n; i++ {
		st.symbols = append(st.symbols, fmt.Sprintf("quotes/SYM%03d", i))
		st.prices = append(st.prices, 20+rnd.Float64()*480)
	}
	z := rnd.Zipf(1.2, uint64(n))
	st.zipf = func() int { return int(z.Uint64()) % n }
	return st
}

// Next implements Generator.
func (st *StockTicker) Next() (Event, bool) {
	st.now += st.rnd.Exp(st.rate)
	if st.now > st.horizon {
		return Event{}, false
	}
	i := st.zipf()
	st.prices[i] *= math.Exp(st.rnd.Normal(0, 0.002))
	if st.prices[i] < 0.01 {
		st.prices[i] = 0.01
	}
	return Event{
		At: st.now, Op: OpPut, Key: st.symbols[i],
		Value: []byte(fmt.Sprintf("price=%.2f", st.prices[i])),
	}, true
}

package routed

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
)

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRouteValidate(t *testing.T) {
	good := Route{Prefix: "10.0.0.0/8", NextHop: "192.168.0.1", Metric: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
	bad := []Route{
		{},
		{Prefix: "10.0.0.0/8"},             // no metric
		{Prefix: "10.0.0.0/8", Metric: 17}, // beyond infinity
		{Prefix: "a b", Metric: 1},         // space in prefix
		{Prefix: "a//b", Metric: 1},        // empty path component
		{Prefix: "x", Metric: 1, NextHop: "bad hop"}, // space in nexthop
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad route %d accepted: %+v", i, r)
		}
	}
}

func TestRouteMarshalRoundTrip(t *testing.T) {
	in := Route{Prefix: "10.1.0.0/16", NextHop: "gw1", Metric: 7, Origin: "r1"}
	out, err := unmarshalRoute(in.Prefix, in.Origin, in.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
	if _, err := unmarshalRoute("p", "o", []byte("garbage")); err == nil {
		t.Error("garbage value accepted")
	}
	if _, err := unmarshalRoute("p", "o", []byte("nexthop=x")); err == nil {
		t.Error("metric-less value accepted")
	}
}

func TestBetterOrdering(t *testing.T) {
	a := Route{Metric: 2, Origin: "zeta"}
	b := Route{Metric: 3, Origin: "alpha"}
	if !better(a, b) {
		t.Error("lower metric should win")
	}
	c := Route{Metric: 2, Origin: "alpha"}
	if !better(c, a) {
		t.Error("ties should break by origin name")
	}
}

// twoRouterSetup builds routers r1 and r2 adjacent to one RIB over a
// shared in-memory network, each on its own SSTP session.
func twoRouterSetup(t *testing.T) (*Router, *Router, *RIB, *transport.MemNetwork, func()) {
	t.Helper()
	nw := transport.NewMemNetwork(41)
	rib := NewRIB()
	var closers []func()

	mkRouter := func(name string, session uint64) *Router {
		sc := nw.Endpoint(transport.MemAddr(name))
		s, err := sstp.NewSender(sstp.SenderConfig{
			Session: session, SenderID: 1,
			Conn: sc, Dest: transport.MemAddr("rib-" + name),
			TotalRate: 128_000, SummaryInterval: 60 * time.Millisecond,
			TTL: 1500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		closers = append(closers, func() { s.Close() })
		_, err = rib.AddAdjacency(name, sstp.ReceiverConfig{
			Session: session, ReceiverID: 2,
			Conn:         nw.Endpoint(transport.MemAddr("rib-" + name)),
			FeedbackDest: transport.MemAddr(name),
			NACKWindow:   30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return NewRouter(name, s)
	}
	r1 := mkRouter("r1", 101)
	r2 := mkRouter("r2", 102)
	cleanup := func() {
		for _, c := range closers {
			c()
		}
		rib.Close()
	}
	return r1, r2, rib, nw, cleanup
}

func TestBestPathSelection(t *testing.T) {
	r1, r2, rib, _, cleanup := twoRouterSetup(t)
	defer cleanup()

	// Both routers advertise the same prefix; r2 has the better path.
	if err := r1.Advertise(Route{Prefix: "10.1.0.0/16", NextHop: "via-r1", Metric: 5}); err != nil {
		t.Fatal(err)
	}
	if err := r2.Advertise(Route{Prefix: "10.1.0.0/16", NextHop: "via-r2", Metric: 2}); err != nil {
		t.Fatal(err)
	}
	// Wait for both advertisements, not just the winning one: Best can
	// converge on r2 before r1's route has arrived.
	waitFor(t, 10*time.Second, "best = r2 with both routes known", func() bool {
		b, ok := rib.Best("10.1.0.0/16")
		return ok && b.Origin == "r2" && len(rib.Alternates("10.1.0.0/16")) == 2
	})
	alts := rib.Alternates("10.1.0.0/16")
	if len(alts) != 2 || alts[0].Origin != "r2" || alts[1].Origin != "r1" {
		t.Errorf("alternates = %+v", alts)
	}
	if rib.Len() != 1 {
		t.Errorf("Len = %d", rib.Len())
	}
}

func TestFailoverOnRouterCrash(t *testing.T) {
	r1, r2, rib, nw, cleanup := twoRouterSetup(t)
	defer cleanup()

	r1.Advertise(Route{Prefix: "10.2.0.0/16", NextHop: "via-r1", Metric: 1})
	r2.Advertise(Route{Prefix: "10.2.0.0/16", NextHop: "via-r2", Metric: 4})
	waitFor(t, 10*time.Second, "best = r1", func() bool {
		b, ok := rib.Best("10.2.0.0/16")
		return ok && b.Origin == "r1"
	})

	var events []string
	var mu sync.Mutex
	rib.OnBestChange = func(prefix string, best Route, ok bool) {
		mu.Lock()
		events = append(events, fmt.Sprintf("%s->%s(%v)", prefix, best.Origin, ok))
		mu.Unlock()
	}

	// r1 crashes: its refreshes stop, the replica expires, and the RIB
	// fails over to r2 with no withdrawal message ever sent.
	nw.SetLoss("r1", "rib-r1", 1)
	waitFor(t, 10*time.Second, "failover to r2", func() bool {
		b, ok := rib.Best("10.2.0.0/16")
		return ok && b.Origin == "r2"
	})
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Error("no OnBestChange events during failover")
	}
}

func TestPoisonedRouteWithdraws(t *testing.T) {
	r1, _, rib, _, cleanup := twoRouterSetup(t)
	defer cleanup()
	r1.Advertise(Route{Prefix: "10.3.0.0/16", NextHop: "gw", Metric: 3})
	waitFor(t, 10*time.Second, "installed", func() bool {
		_, ok := rib.Best("10.3.0.0/16")
		return ok
	})
	// Metric 16 = unreachable: advertised as a withdrawal.
	if err := r1.Advertise(Route{Prefix: "10.3.0.0/16", NextHop: "gw", Metric: Infinity}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "withdrawn", func() bool {
		_, ok := rib.Best("10.3.0.0/16")
		return !ok
	})
}

func TestTableSorted(t *testing.T) {
	r1, _, rib, _, cleanup := twoRouterSetup(t)
	defer cleanup()
	for _, p := range []string{"10.9.0.0/16", "10.1.0.0/16", "10.5.0.0/16"} {
		r1.Advertise(Route{Prefix: p, NextHop: "gw", Metric: 1})
	}
	waitFor(t, 10*time.Second, "three routes", func() bool { return rib.Len() == 3 })
	tbl := rib.Table()
	if tbl[0].Prefix != "10.1.0.0/16" || tbl[2].Prefix != "10.9.0.0/16" {
		t.Errorf("table not sorted: %+v", tbl)
	}
}

func TestAdjacencyValidation(t *testing.T) {
	rib := NewRIB()
	if _, err := rib.AddAdjacency("", sstp.ReceiverConfig{}); err == nil {
		t.Error("empty origin accepted")
	}
	if _, err := rib.AddAdjacency("x", sstp.ReceiverConfig{}); err == nil {
		t.Error("invalid receiver config accepted")
	}
}

func TestRouterPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRouter with nil sender did not panic")
		}
	}()
	NewRouter("x", nil)
}

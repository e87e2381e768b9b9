package sdir

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"softstate/internal/sstp"
	"softstate/internal/transport"
)

func sampleSession() Session {
	return Session{
		Name:        "sigcomm-keynote",
		Description: "Opening keynote",
		Owner:       "chair@conf.example",
		Tool:        "vic",
		Address:     "224.2.1.1/51482",
		Starts:      time.Unix(1_000_000, 0),
		Ends:        time.Unix(1_003_600, 0),
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	in := sampleSession()
	out, err := Unmarshal(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Description != in.Description ||
		out.Owner != in.Owner || out.Tool != in.Tool || out.Address != in.Address {
		t.Errorf("round trip changed fields: %+v", out)
	}
	if !out.Starts.Equal(in.Starts) || !out.Ends.Equal(in.Ends) {
		t.Errorf("times changed: %v %v", out.Starts, out.Ends)
	}
}

func TestMarshalOpenEnded(t *testing.T) {
	in := Session{Name: "forever"}
	out, err := Unmarshal(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Starts.IsZero() || !out.Ends.IsZero() {
		t.Errorf("zero times not preserved: %+v", out)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		"",
		"s=x\n",           // missing v=
		"v=1\ns=x\n",      // bad version
		"v=0\n",           // missing name
		"v=0\ns=x\nbad\n", // malformed line
		"v=0\ns=x\nt=1\n", // malformed t=
		"v=0\ns=x\nt=a b\n",
	}
	for i, c := range cases {
		if _, err := Unmarshal([]byte(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestUnmarshalIgnoresUnknownAttributes(t *testing.T) {
	s, err := Unmarshal([]byte("v=0\ns=x\nz=future-field\n"))
	if err != nil || s.Name != "x" {
		t.Errorf("forward compatibility broken: %v %v", s, err)
	}
}

func TestValidate(t *testing.T) {
	good := sampleSession()
	if err := good.Validate(); err != nil {
		t.Errorf("valid session rejected: %v", err)
	}
	bad := []Session{
		{},
		{Name: "a/b"},
		{Name: "x\ny"},
		{Name: "x", Description: "a\nb"},
		{Name: "x", Starts: time.Unix(100, 0), Ends: time.Unix(50, 0)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad session %d accepted: %+v", i, s)
		}
	}
}

func TestActive(t *testing.T) {
	s := sampleSession()
	if s.Active(s.Starts.Add(-time.Second)) {
		t.Error("active before start")
	}
	if !s.Active(s.Starts.Add(time.Minute)) {
		t.Error("inactive mid-session")
	}
	if s.Active(s.Ends) {
		t.Error("active at end")
	}
	open := Session{Name: "open"}
	if !open.Active(time.Now()) {
		t.Error("open-ended session inactive")
	}
}

// Property: any session with printable single-line fields round-trips.
func TestPropertyRoundTrip(t *testing.T) {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, s)
	}
	f := func(name, desc, tool string) bool {
		in := Session{
			Name:        "n" + strings.ReplaceAll(clean(name), "/", "_"),
			Description: clean(desc),
			Tool:        clean(tool),
		}
		if err := in.Validate(); err != nil {
			return true
		}
		out, err := Unmarshal(in.Marshal())
		if err != nil {
			return false
		}
		return out.Name == in.Name && out.Description == in.Description && out.Tool == in.Tool
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDirectoryBrowserEndToEnd runs the full application over a lossy
// in-memory network: announce, update, withdraw, and soft-state
// expiry all flow through to the browser.
func TestDirectoryBrowserEndToEnd(t *testing.T) {
	nw := transport.NewMemNetwork(21)
	nw.SetLoss("dir", "ui", 0.1)
	sender, err := sstp.NewSender(sstp.SenderConfig{
		Session: 9875, SenderID: 1,
		Conn: nw.Endpoint("dir"), Dest: transport.MemAddr("ui"),
		TotalRate: 256_000, SummaryInterval: 60 * time.Millisecond,
		TTL: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	dir := NewDirectory(sender)

	var newNames, goneNames []string
	var mu sync.Mutex
	browser, rcv, err := NewBrowser(sstp.ReceiverConfig{
		Session: 9875, ReceiverID: 2,
		Conn: nw.Endpoint("ui"), FeedbackDest: transport.MemAddr("dir"),
		NACKWindow: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	browser.OnNew = func(s Session) { mu.Lock(); newNames = append(newNames, s.Name); mu.Unlock() }
	browser.OnGone = func(n string) { mu.Lock(); goneNames = append(goneNames, n); mu.Unlock() }
	defer rcv.Close()
	sender.Start()
	rcv.Start()

	ends := time.Now().Add(time.Hour)
	for _, name := range []string{"keynote", "wg-meeting", "hallway"} {
		if err := dir.Announce(Session{Name: name, Tool: "vat", Ends: ends}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "catalogue sync", func() bool { return browser.Len() == 3 })
	if got := browser.List(); got[0].Name != "hallway" || got[2].Name != "wg-meeting" {
		t.Errorf("List order: %v", got)
	}
	if _, ok := browser.Get("keynote"); !ok {
		t.Error("keynote missing")
	}

	// Update propagates as OnChange, not OnNew.
	changed := make(chan Session, 1)
	browser.OnChange = func(s Session) {
		select {
		case changed <- s:
		default:
		}
	}
	dir.Announce(Session{Name: "keynote", Tool: "vic", Description: "now with video", Ends: ends})
	select {
	case s := <-changed:
		if s.Tool != "vic" {
			t.Errorf("changed session: %+v", s)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no OnChange")
	}

	// Withdrawal tombstones through to OnGone.
	if !dir.Withdraw("hallway") {
		t.Fatal("withdraw failed")
	}
	waitFor(t, 10*time.Second, "withdrawal", func() bool { return browser.Len() == 2 })

	// Killing the directory expires the rest via soft state.
	sender.Close()
	waitFor(t, 10*time.Second, "expiry", func() bool { return browser.Len() == 0 })
	mu.Lock()
	defer mu.Unlock()
	if len(newNames) != 3 {
		t.Errorf("OnNew fired %d times: %v", len(newNames), newNames)
	}
	if len(goneNames) != 3 {
		t.Errorf("OnGone fired %d times: %v", len(goneNames), goneNames)
	}
}

func TestAnnounceValidation(t *testing.T) {
	nw := transport.NewMemNetwork(22)
	sender, err := sstp.NewSender(sstp.SenderConfig{
		Session: 1, SenderID: 1, Conn: nw.Endpoint("d"), Dest: transport.MemAddr("u"), TotalRate: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	dir := NewDirectory(sender)
	if err := dir.Announce(Session{}); err == nil {
		t.Error("nameless session accepted")
	}
	if err := dir.Announce(Session{Name: "x", Ends: time.Now().Add(-time.Hour)}); err == nil {
		t.Error("ended session accepted")
	}
	if dir.Withdraw("missing") {
		t.Error("withdraw of unknown session returned true")
	}
}

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

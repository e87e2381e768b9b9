package sstp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"softstate/internal/transport"
)

func TestReliabilityStrings(t *testing.T) {
	for _, r := range []Reliability{BestEffort, AnnounceListen, Repair, Reliable} {
		if r.String() == "" || r.String()[0] == 'R' {
			t.Errorf("level %d unnamed: %q", r, r.String())
		}
	}
	if Reliability(9).String() != "Reliability(9)" {
		t.Error("unknown level should stringify numerically")
	}
	if err := Reliability(9).Apply(nil, nil); err == nil {
		t.Error("unknown level applied")
	}
}

func TestReliabilityApplyKnobs(t *testing.T) {
	var sc SenderConfig
	var rc ReceiverConfig
	if err := BestEffort.Apply(&sc, &rc); err != nil {
		t.Fatal(err)
	}
	if !rc.DisableFeedback || sc.SummaryInterval < time.Hour {
		t.Errorf("best-effort knobs wrong: %+v %+v", sc, rc)
	}
	rc = ReceiverConfig{}
	if err := Repair.Apply(nil, &rc); err != nil {
		t.Fatal(err)
	}
	if rc.DisableFeedback || rc.ReportInterval >= 0 {
		t.Errorf("repair knobs wrong: %+v", rc)
	}
	if err := Reliable.Apply(nil, &rc); err != nil {
		t.Fatal(err)
	}
	if rc.ReportInterval != 0 {
		t.Errorf("reliable should restore default reports: %+v", rc)
	}
}

// TestReliabilitySpectrum runs the same lossy workload at each level
// and checks the ordering the paper promises: stronger levels reach
// (weakly) higher replica consistency within a fixed deadline.
func TestReliabilitySpectrum(t *testing.T) {
	measure := func(level Reliability) float64 {
		nw := transport.NewMemNetwork(51)
		nw.SetLoss("s", "r", 0.4)
		sc := SenderConfig{
			Session: 1, SenderID: 1,
			Conn: nw.Endpoint("s"), Dest: transport.MemAddr("r"),
			TotalRate: 48_000, HotFraction: 0.95,
			SummaryInterval: 80 * time.Millisecond,
			TTL:             60 * time.Second,
		}
		rc := ReceiverConfig{
			Session: 1, ReceiverID: 2,
			Conn: nw.Endpoint("r"), FeedbackDest: transport.MemAddr("s"),
			NACKWindow: 30 * time.Millisecond,
		}
		if err := level.Apply(&sc, &rc); err != nil {
			t.Fatal(err)
		}
		s, err := NewSender(sc)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		r, err := NewReceiver(rc)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		s.Start()
		r.Start()
		val := bytes.Repeat([]byte("x"), 256)
		for i := 0; i < 12; i++ {
			s.Publish(fmt.Sprintf("k/%02d", i), val, 0)
		}
		time.Sleep(6 * time.Second)
		pub, sub := s.Snapshot(), r.Snapshot()
		match := 0
		for k, v := range pub {
			if bytes.Equal(sub[k], v) {
				match++
			}
		}
		return float64(match) / float64(len(pub))
	}
	be := measure(BestEffort)
	al := measure(AnnounceListen)
	rp := measure(Repair)
	t.Logf("best-effort %.2f, announce/listen %.2f, repair %.2f", be, al, rp)
	if rp < al-0.05 || al < be-0.05 {
		t.Errorf("spectrum out of order: best-effort %.2f, announce/listen %.2f, repair %.2f", be, al, rp)
	}
	if rp < 0.9 {
		t.Errorf("repair level only reached %.2f", rp)
	}
	if be > 0.9 {
		t.Errorf("best-effort unexpectedly reached %.2f at 40%% loss", be)
	}
}

package transport

import (
	"strings"
	"testing"
)

func TestParseEndpoint(t *testing.T) {
	cases := []struct {
		spec    string
		def     string
		want    Endpoint
		wantErr bool
	}{
		// Bare host:port keeps the pre-scheme behaviour: udp.
		{"127.0.0.1:8701", "udp", Endpoint{"udp", "127.0.0.1:8701"}, false},
		{"localhost:99", "udp", Endpoint{"udp", "localhost:99"}, false},
		{"[::1]:8701", "udp", Endpoint{"udp", "[::1]:8701"}, false},
		// IPv6 literals need their brackets through every scheme.
		{"udp://[::1]:8701", "udp", Endpoint{"udp", "[::1]:8701"}, false},
		{"tcp://[::1]:9000", "udp", Endpoint{"tcp", "[::1]:9000"}, false},
		{"tls://[fe80::1%25eth0]:443", "udp", Endpoint{"tls", "[fe80::1%25eth0]:443"}, false},
		{"[2001:db8::42]:19", "tcp", Endpoint{"tcp", "[2001:db8::42]:19"}, false},
		// An unbracketed IPv6 literal is ambiguous host:port and fails.
		{"udp://::1:8701", "udp", Endpoint{}, true},
		// -transport retargets bare specs...
		{"127.0.0.1:8701", "tcp", Endpoint{"tcp", "127.0.0.1:8701"}, false},
		{"127.0.0.1:8701", "tls", Endpoint{"tls", "127.0.0.1:8701"}, false},
		// ...but an explicit scheme always wins.
		{"udp://127.0.0.1:8701", "tls", Endpoint{"udp", "127.0.0.1:8701"}, false},
		{"tcp://10.0.0.1:9000", "udp", Endpoint{"tcp", "10.0.0.1:9000"}, false},
		{"tls://example.com:443", "udp", Endpoint{"tls", "example.com:443"}, false},
		{"mem://group", "udp", Endpoint{"mem", "group"}, false},
		// Errors: unknown schemes, empty or malformed addresses.
		{"quic://h:1", "udp", Endpoint{}, true},
		{"tcp://", "udp", Endpoint{}, true},
		{"tcp://noport", "udp", Endpoint{}, true},
		{"justahost", "udp", Endpoint{}, true},
		{"", "udp", Endpoint{}, true},
	}
	for _, c := range cases {
		got, err := ParseEndpointDefault(c.spec, c.def)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseEndpointDefault(%q, %q) = %v, want error", c.spec, c.def, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseEndpointDefault(%q, %q): %v", c.spec, c.def, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseEndpointDefault(%q, %q) = %v, want %v", c.spec, c.def, got, c.want)
		}
	}
}

func TestParseEndpointUnknownSchemeNamed(t *testing.T) {
	// The error must name the offending scheme, not just echo the spec:
	// "quic://h:1 is wrong" without saying *what* is wrong sends users
	// grepping the docs.
	_, err := ParseEndpoint("quic://h:1")
	if err == nil {
		t.Fatal("quic scheme accepted")
	}
	if !strings.Contains(err.Error(), `"quic"`) {
		t.Fatalf("error %q does not name the offending scheme", err)
	}
	// Bare specs that fail scheme validation name the defaulted scheme.
	_, err = ParseEndpointDefault("host:1", "carrierpigeon")
	if err == nil {
		t.Fatal("unknown default scheme accepted")
	}
	if !strings.Contains(err.Error(), `"carrierpigeon"`) {
		t.Fatalf("error %q does not name the offending scheme", err)
	}
}

func TestParseEndpointDefaultsUDP(t *testing.T) {
	e, err := ParseEndpoint("127.0.0.1:8701")
	if err != nil {
		t.Fatal(err)
	}
	if e.Scheme != "udp" {
		t.Fatalf("bare spec scheme = %q, want udp", e.Scheme)
	}
	if e.String() != "udp://127.0.0.1:8701" {
		t.Fatalf("String() = %q", e.String())
	}
}

func TestResolveSchemeMismatch(t *testing.T) {
	tr, err := New("tcp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(tr, "udp://127.0.0.1:9"); err == nil {
		t.Fatal("udp destination accepted on a tcp transport")
	}
	// Bare specs inherit the transport's scheme.
	if _, err := Resolve(tr, "127.0.0.1:9"); err != nil {
		t.Fatalf("bare destination rejected: %v", err)
	}
}

func TestBindMemScheme(t *testing.T) {
	nw := NewMemNetwork(1)
	tr, conn, err := bind("mem://a", "udp", Options{Mem: nw})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Scheme() != "mem" {
		t.Fatalf("scheme = %q", tr.Scheme())
	}
	dest, err := Resolve(tr, "mem://b")
	if err != nil {
		t.Fatal(err)
	}
	other := nw.Endpoint("b")
	if _, err := conn.WriteTo([]byte("hi"), dest); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, from, err := other.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "hi" || from.String() != "a" {
		t.Fatalf("ReadFrom = %q from %v, %v", buf[:n], from, err)
	}
}

package transport

import (
	"flag"
	"io"
	"testing"
)

func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestFlagsBind(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		laddr  string
		scheme string
	}{
		{"default is udp", nil, "127.0.0.1:0", "udp"},
		{"bare address inherits -transport", []string{"-transport", "tcp"}, "127.0.0.1:0", "tcp"},
		{"explicit scheme wins", []string{"-transport", "tcp"}, "udp://127.0.0.1:0", "udp"},
		{"tls with no cert flags self-signs", []string{"-transport", "tls"}, "127.0.0.1:0", "tls"},
	} {
		tr, conn, err := parseFlags(t, tc.args...).Bind(tc.laddr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		conn.Close()
		if tr.Scheme() != tc.scheme {
			t.Errorf("%s: bound scheme %q, want %q", tc.name, tr.Scheme(), tc.scheme)
		}
	}
}

func TestFlagsBindErrors(t *testing.T) {
	missing := t.TempDir() + "/missing.pem"
	for _, tc := range []struct {
		name  string
		args  []string
		laddr string
	}{
		{"bad cert path", []string{"-transport", "tls", "-tlscert", missing, "-tlskey", missing}, "127.0.0.1:0"},
		{"bad CA path", []string{"-tlsca", missing}, "127.0.0.1:0"},
		{"unknown -transport", []string{"-transport", "sctp"}, "127.0.0.1:0"},
		{"unknown scheme in the address", nil, "sctp://127.0.0.1:0"},
		{"address without a port", nil, "localhost"},
	} {
		if _, conn, err := parseFlags(t, tc.args...).Bind(tc.laddr); err == nil {
			conn.Close()
			t.Errorf("%s: Bind succeeded, want an error", tc.name)
		}
	}
}

package transport

import "flag"

// Flags is the wire-selection block every daemon's command line
// carries: the default scheme for bare addresses plus the TLS
// material. Register it on the daemon's flag set, then Bind each
// local address — the PEM loading, endpoint parsing and transport
// construction stay in here.
type Flags struct {
	scheme, cert, key, ca, serverName string
}

// Register declares -transport, -tlscert, -tlskey, -tlsca and
// -tlsname on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.scheme, "transport", "udp", "wire transport for bare addresses: udp, tcp, or tls (an explicit scheme://host:port wins)")
	fs.StringVar(&f.cert, "tlscert", "", "TLS certificate PEM (tls links; empty generates self-signed)")
	fs.StringVar(&f.key, "tlskey", "", "TLS private key PEM")
	fs.StringVar(&f.ca, "tlsca", "", "CA PEM: verify dialed peers and require client certs (mTLS)")
	fs.StringVar(&f.serverName, "tlsname", "", "expected server name on dialed TLS peers")
}

// Bind listens on laddr — a bare host:port inherits -transport, an
// explicit scheme:// wins — and returns the conn with the transport
// that resolves its peers (see Resolve).
func (f *Flags) Bind(laddr string) (Transport, Conn, error) {
	o, err := tlsOptions(f.cert, f.key, f.ca, f.serverName)
	if err != nil {
		return nil, nil, err
	}
	return bind(laddr, f.scheme, o)
}

package transport

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"os"
	"time"
)

// TLSConfig is the standard library's tls.Config; aliased so callers
// of Options don't need a second crypto/tls import line for the
// common no-TLS case.
type TLSConfig = tls.Config

func serverTLSConfig(c *TLSConfig) *tls.Config {
	if c == nil {
		return nil
	}
	return c.Clone()
}

func clientTLSConfig(c *TLSConfig) *tls.Config {
	if c == nil {
		// Lab default: encrypted but unauthenticated, like an ad-hoc
		// self-signed deployment. Pass Options.TLSClient with RootCAs
		// (see Flags) to verify peers.
		return &tls.Config{InsecureSkipVerify: true}
	}
	return c.Clone()
}

// GenerateSelfSigned mints an ephemeral ECDSA P-256 certificate,
// self-signed, valid for a year, with loopback and localhost SANs —
// enough for the tls transport's smoke tests and for lab deployments
// that have not provisioned real certificates. It returns the
// certificate ready for a tls.Config plus its PEM encoding so the
// client side can pin it as a root.
func GenerateSelfSigned(commonName string) (tls.Certificate, []byte, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	tmpl := x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: commonName},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage: []x509.ExtKeyUsage{
			x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth,
		},
		BasicConstraintsValid: true,
		IsCA:                  true,
		DNSNames:              []string{"localhost", commonName},
		IPAddresses:           []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	cert, err := tls.X509KeyPair(certPEM, keyPEM)
	if err != nil {
		return tls.Certificate{}, nil, err
	}
	return cert, certPEM, nil
}

// tlsOptions assembles Options' TLS half from the PEM files the
// daemons' -tls* flags name (see Flags).
//
//   - certFile/keyFile: this node's certificate for tls listeners.
//     Empty generates an ephemeral self-signed pair at Listen time.
//   - caFile: roots for verifying peers. On the dialing side it turns
//     verification on (the default is InsecureSkipVerify); on the
//     listening side it additionally requires and verifies client
//     certificates (mTLS).
//   - serverName overrides the name dialed certificates are checked
//     against (useful when dialing by IP with a CA that issued
//     hostname certs).
func tlsOptions(certFile, keyFile, caFile, serverName string) (Options, error) {
	var o Options
	server := &tls.Config{}
	client := &tls.Config{InsecureSkipVerify: true}
	if certFile != "" || keyFile != "" {
		cert, err := tls.LoadX509KeyPair(certFile, keyFile)
		if err != nil {
			return o, fmt.Errorf("transport: load key pair: %w", err)
		}
		server.Certificates = []tls.Certificate{cert}
		client.Certificates = []tls.Certificate{cert}
		o.TLSServer = server
	}
	if caFile != "" {
		pemBytes, err := os.ReadFile(caFile)
		if err != nil {
			return o, fmt.Errorf("transport: read CA: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pemBytes) {
			return o, fmt.Errorf("transport: no certificates in %s", caFile)
		}
		client.RootCAs = pool
		client.InsecureSkipVerify = false
		client.ServerName = serverName
		server.ClientCAs = pool
		server.ClientAuth = tls.RequireAndVerifyClientCert
		if o.TLSServer == nil {
			o.TLSServer = server // mTLS with an ephemeral server cert
		}
	}
	o.TLSClient = client
	return o, nil
}

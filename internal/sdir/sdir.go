// Package sdir is a session-directory application built on SSTP — the
// sdr/SAP use case the paper repeatedly motivates ("it has been
// successfully used in the multicast-based session directory tools to
// disseminate MBone conference information to large groups").
//
// A Directory announces conference Sessions as soft state: each
// session is one {key, value} record whose lifetime matches the
// conference's end time, described in an SDP-like text form. Browsers
// subscribe and maintain a live catalogue that tracks announcements,
// updates, withdrawals, and — crucially — expires sessions by itself
// when announcements stop.
package sdir

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"softstate/internal/sstp"
)

// Session describes one announced conference.
type Session struct {
	Name        string    // unique within the directory
	Description string    // one-line human description
	Owner       string    // announcer identity
	Tool        string    // media tool, e.g. "vat", "vic", "wb"
	Address     string    // where the conference itself happens
	Starts      time.Time // zero = already started
	Ends        time.Time // zero = open-ended
}

// Validate checks announceability.
func (s Session) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("sdir: session needs a name")
	}
	if strings.ContainsAny(s.Name, "/\n") {
		return fmt.Errorf("sdir: name %q may not contain '/' or newlines", s.Name)
	}
	for _, f := range []struct{ label, v string }{
		{"description", s.Description}, {"owner", s.Owner},
		{"tool", s.Tool}, {"address", s.Address},
	} {
		if strings.ContainsRune(f.v, '\n') {
			return fmt.Errorf("sdir: %s may not contain newlines", f.label)
		}
	}
	if !s.Ends.IsZero() && !s.Starts.IsZero() && s.Ends.Before(s.Starts) {
		return fmt.Errorf("sdir: session ends before it starts")
	}
	return nil
}

// Active reports whether the session is in progress at time t.
func (s Session) Active(t time.Time) bool {
	if !s.Starts.IsZero() && t.Before(s.Starts) {
		return false
	}
	if !s.Ends.IsZero() && !t.Before(s.Ends) {
		return false
	}
	return true
}

// Marshal encodes the session in an SDP-like line format.
func (s Session) Marshal() []byte {
	var b strings.Builder
	b.WriteString("v=0\n")
	fmt.Fprintf(&b, "s=%s\n", s.Name)
	if s.Description != "" {
		fmt.Fprintf(&b, "i=%s\n", s.Description)
	}
	if s.Owner != "" {
		fmt.Fprintf(&b, "o=%s\n", s.Owner)
	}
	if s.Tool != "" {
		fmt.Fprintf(&b, "m=%s\n", s.Tool)
	}
	if s.Address != "" {
		fmt.Fprintf(&b, "c=%s\n", s.Address)
	}
	start, end := int64(0), int64(0)
	if !s.Starts.IsZero() {
		start = s.Starts.Unix()
	}
	if !s.Ends.IsZero() {
		end = s.Ends.Unix()
	}
	fmt.Fprintf(&b, "t=%d %d\n", start, end)
	return []byte(b.String())
}

// Unmarshal parses the SDP-like format.
func Unmarshal(data []byte) (Session, error) {
	var s Session
	sawVersion := false
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		if len(line) < 2 || line[1] != '=' {
			return s, fmt.Errorf("sdir: malformed line %q", line)
		}
		val := line[2:]
		switch line[0] {
		case 'v':
			if val != "0" {
				return s, fmt.Errorf("sdir: unsupported version %q", val)
			}
			sawVersion = true
		case 's':
			s.Name = val
		case 'i':
			s.Description = val
		case 'o':
			s.Owner = val
		case 'm':
			s.Tool = val
		case 'c':
			s.Address = val
		case 't':
			parts := strings.Fields(val)
			if len(parts) != 2 {
				return s, fmt.Errorf("sdir: malformed t= line %q", line)
			}
			start, err1 := strconv.ParseInt(parts[0], 10, 64)
			end, err2 := strconv.ParseInt(parts[1], 10, 64)
			if err1 != nil || err2 != nil {
				return s, fmt.Errorf("sdir: malformed t= line %q", line)
			}
			if start != 0 {
				s.Starts = time.Unix(start, 0)
			}
			if end != 0 {
				s.Ends = time.Unix(end, 0)
			}
		default:
			// Unknown attributes are ignored for forward compatibility.
		}
	}
	if !sawVersion {
		return s, fmt.Errorf("sdir: missing v= line")
	}
	if s.Name == "" {
		return s, fmt.Errorf("sdir: missing s= line")
	}
	return s, nil
}

const keyPrefix = "sessions/"

// Directory is the announcing side: a thin application layer over an
// SSTP sender.
type Directory struct {
	sender *sstp.Sender
}

// NewDirectory announces sessions through the given SSTP sender (which
// the caller configures, starts, and closes).
func NewDirectory(sender *sstp.Sender) *Directory {
	if sender == nil {
		panic("sdir: nil sender")
	}
	return &Directory{sender: sender}
}

// Announce publishes or updates a session. Its record lifetime is
// derived from Ends (open-ended sessions live until Withdraw).
func (d *Directory) Announce(s Session) error {
	if err := s.Validate(); err != nil {
		return err
	}
	var lifetime time.Duration
	if !s.Ends.IsZero() {
		lifetime = time.Until(s.Ends)
		if lifetime <= 0 {
			return fmt.Errorf("sdir: session %q already ended", s.Name)
		}
	}
	return d.sender.Publish(keyPrefix+s.Name, s.Marshal(), lifetime)
}

// Withdraw removes a session announcement (tombstoned to listeners).
func (d *Directory) Withdraw(name string) bool {
	return d.sender.Delete(keyPrefix + name)
}

// Len returns the number of live announcements.
func (d *Directory) Len() int { return d.sender.Len() }

// Browser is the listening side: it maintains the replica catalogue.
type Browser struct {
	mu       sync.Mutex
	sessions map[string]Session
	receiver *sstp.Receiver

	// OnNew, OnChange, and OnGone fire as the catalogue evolves
	// (OnGone covers both withdrawal and soft-state expiry).
	OnNew    func(Session)
	OnChange func(Session)
	OnGone   func(name string)
}

// NewBrowser builds a catalogue fed by an SSTP receiver created from
// cfg; the browser installs its own OnUpdate/OnExpire hooks (chaining
// to any the caller provided) and returns the receiver so the caller
// can Start/Close it.
func NewBrowser(cfg sstp.ReceiverConfig) (*Browser, *sstp.Receiver, error) {
	b := &Browser{sessions: make(map[string]Session)}
	userUpdate, userExpire := cfg.OnUpdate, cfg.OnExpire
	cfg.OnUpdate = func(key string, value []byte, version uint64, born float64) {
		b.update(key, value)
		if userUpdate != nil {
			userUpdate(key, value, version, born)
		}
	}
	cfg.OnExpire = func(key string) {
		b.gone(key)
		if userExpire != nil {
			userExpire(key)
		}
	}
	r, err := sstp.NewReceiver(cfg)
	if err != nil {
		return nil, nil, err
	}
	b.receiver = r
	return b, r, nil
}

func (b *Browser) update(key string, value []byte) {
	if !strings.HasPrefix(key, keyPrefix) {
		return
	}
	s, err := Unmarshal(value)
	if err != nil {
		return // malformed announcements are ignored, not fatal
	}
	b.mu.Lock()
	_, existed := b.sessions[s.Name]
	b.sessions[s.Name] = s
	b.mu.Unlock()
	if existed {
		if b.OnChange != nil {
			b.OnChange(s)
		}
	} else if b.OnNew != nil {
		b.OnNew(s)
	}
}

func (b *Browser) gone(key string) {
	if !strings.HasPrefix(key, keyPrefix) {
		return
	}
	name := strings.TrimPrefix(key, keyPrefix)
	b.mu.Lock()
	_, existed := b.sessions[name]
	delete(b.sessions, name)
	b.mu.Unlock()
	if existed && b.OnGone != nil {
		b.OnGone(name)
	}
}

// Get returns a session by name.
func (b *Browser) Get(name string) (Session, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.sessions[name]
	return s, ok
}

// List returns all known sessions sorted by name.
func (b *Browser) List() []Session {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Session, 0, len(b.sessions))
	for _, s := range b.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the catalogue size.
func (b *Browser) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sessions)
}

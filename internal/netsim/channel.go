package netsim

import (
	"fmt"

	"softstate/internal/eventsim"
	"softstate/internal/obs"
)

// Channel is a finite-capacity broadcast link: one sender, N receiver
// paths, service rate Rate bits/second. A transmission occupies the
// channel for size/Rate seconds (the "service" of the paper's queueing
// model); on completion, each receiver path independently decides loss
// and, if delivered, the payload arrives after the path's propagation
// delay.
//
// The channel does not queue: the protocol engine holds the
// transmission queues (hot/cold/FIFO) and offers the next packet when
// the channel goes idle via the OnIdle callback. This mirrors the
// paper's model, where scheduling policy is the object under study.
type Channel struct {
	sim   *eventsim.Sim
	rate  float64
	paths []path
	busy  bool

	// OnIdle, if non-nil, fires each time the channel finishes a
	// service and becomes free. Protocol engines use it to pull the
	// next packet from their queues.
	OnIdle func()

	// In-flight service state plus a prebuilt completion callback, so
	// Transmit schedules the service-done event without allocating a
	// closure per packet.
	curSize    float64
	curDeliver func(receiver int, delivered bool)
	done       func()

	// Counters.
	transmissions int
	bitsSent      float64

	txC   *obs.Counter
	bitsC *obs.Counter
	lossC *obs.Counter
}

// Instrument publishes channel activity to reg, labelled to tell
// multiple channels apart (e.g. "link", "hot"):
// netsim_transmissions_total, netsim_bits_sent_total, and
// netsim_losses_total (per-path loss coin flips that came up lost).
// Safe with a nil registry.
func (c *Channel) Instrument(reg *obs.Registry, labels ...string) {
	c.txC = reg.Counter("netsim_transmissions_total", labels...)
	c.bitsC = reg.Counter("netsim_bits_sent_total", labels...)
	c.lossC = reg.Counter("netsim_losses_total", labels...)
}

type path struct {
	loss  LossModel
	delay float64
}

// NewChannel creates a broadcast channel on sim with the given service
// rate in bits per second.
func NewChannel(sim *eventsim.Sim, rate float64) *Channel {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: channel rate %v must be positive", rate))
	}
	c := &Channel{sim: sim, rate: rate}
	c.done = c.serviceDone
	return c
}

// AddReceiver attaches a receiver path with its own loss model and
// propagation delay, returning the receiver's index.
func (c *Channel) AddReceiver(loss LossModel, delay float64) int {
	if loss == nil {
		panic("netsim: nil loss model")
	}
	if delay < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", delay))
	}
	c.paths = append(c.paths, path{loss: loss, delay: delay})
	return len(c.paths) - 1
}

// Rate returns the channel's service rate in bits per second.
func (c *Channel) Rate() float64 { return c.rate }

// SetRate changes the service rate for subsequent transmissions (used
// by adaptive allocators). The in-flight transmission, if any, is
// unaffected.
func (c *Channel) SetRate(rate float64) {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: channel rate %v must be positive", rate))
	}
	c.rate = rate
}

// Busy reports whether a transmission is in progress.
func (c *Channel) Busy() bool { return c.busy }

// Transmissions returns the number of completed services.
func (c *Channel) Transmissions() int { return c.transmissions }

// BitsSent returns the total bits serviced.
func (c *Channel) BitsSent() float64 { return c.bitsSent }

// Transmit begins servicing a packet of the given size in bits. When
// service completes, deliver(receiver, delivered) is invoked once per
// receiver path — after that path's propagation delay for delivered
// packets, immediately (at service-completion time) for lost ones so
// the sender-side model can account for the loss. The channel then
// becomes idle and OnIdle fires.
//
// Transmitting on a busy channel panics: the protocol engines are
// required to respect Busy, and masking a double-transmit would
// corrupt the utilization and consistency measurements.
func (c *Channel) Transmit(sizeBits float64, deliver func(receiver int, delivered bool)) {
	if c.busy {
		panic("netsim: Transmit on busy channel")
	}
	if sizeBits <= 0 {
		panic(fmt.Sprintf("netsim: packet size %v must be positive", sizeBits))
	}
	c.busy = true
	c.curSize = sizeBits
	c.curDeliver = deliver
	c.sim.After(sizeBits/c.rate, c.done)
}

// serviceDone completes the in-flight service: account it, run the
// per-path loss/delivery outcomes, then report idle. The in-flight
// state is snapshotted first because a deliver callback may start the
// next Transmit reentrantly (the engines pump from the final
// delivery).
func (c *Channel) serviceDone() {
	sizeBits, deliver := c.curSize, c.curDeliver
	c.curDeliver = nil
	c.busy = false
	c.transmissions++
	c.bitsSent += sizeBits
	c.txC.Inc()
	c.bitsC.Add(uint64(sizeBits))
	for i := range c.paths {
		p := &c.paths[i]
		if p.loss.Lose() {
			c.lossC.Inc()
			if deliver != nil {
				deliver(i, false)
			}
			continue
		}
		if deliver != nil {
			if p.delay == 0 {
				deliver(i, true)
			} else {
				i := i
				c.sim.After(p.delay, func() { deliver(i, true) })
			}
		}
	}
	if c.OnIdle != nil {
		c.OnIdle()
	}
}

// FeedbackLink is the receiver→sender path: a finite-rate FIFO queue
// with optional loss. Unlike Channel it queues internally, because
// feedback senders (receivers generating NACKs) are not modelled as
// schedulers — they fire and forget. If the queue is full, the
// message is dropped (feedback bandwidth starvation is exactly the
// collapse regime of the paper's Figure 8).
type FeedbackLink struct {
	sim      *eventsim.Sim
	rate     float64
	loss     LossModel
	delay    float64
	maxQueue int

	// OnDeliver, if non-nil, receives the payload of every message
	// sent with SendPayload that survives the loss coin-flip. A single
	// link-level callback lets hot senders avoid allocating a closure
	// per message.
	OnDeliver func(payload any)

	queue []feedbackMsg
	head  int // index of the next message to serve; queue[:head] is spent
	cur   feedbackMsg
	done  func()

	busy    bool
	sent    int
	dropped int
	bits    float64

	sentC *obs.Counter
	dropC *obs.Counter
	bitsC *obs.Counter
	qlenG *obs.Gauge
}

// Instrument publishes feedback-path activity to reg:
// netsim_feedback_sent_total, netsim_feedback_dropped_total,
// netsim_feedback_bits_total, and the netsim_feedback_queue_len gauge.
// Safe with a nil registry.
func (f *FeedbackLink) Instrument(reg *obs.Registry) {
	f.sentC = reg.Counter("netsim_feedback_sent_total")
	f.dropC = reg.Counter("netsim_feedback_dropped_total")
	f.bitsC = reg.Counter("netsim_feedback_bits_total")
	f.qlenG = reg.Gauge("netsim_feedback_queue_len")
}

type feedbackMsg struct {
	bits    float64
	deliver func()
	payload any
}

// NewFeedbackLink creates a feedback path with the given rate (bits
// per second), loss model, propagation delay, and maximum queue
// length (messages; 0 means unbounded).
func NewFeedbackLink(sim *eventsim.Sim, rate float64, loss LossModel, delay float64, maxQueue int) *FeedbackLink {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: feedback rate %v must be positive", rate))
	}
	if loss == nil {
		loss = NoLoss{}
	}
	f := &FeedbackLink{sim: sim, rate: rate, loss: loss, delay: delay, maxQueue: maxQueue}
	f.done = f.serviceDone
	return f
}

// SetRate changes the link rate for subsequent services.
func (f *FeedbackLink) SetRate(rate float64) {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: feedback rate %v must be positive", rate))
	}
	f.rate = rate
}

// Sent returns the number of messages that completed service
// (delivered or lost on the wire).
func (f *FeedbackLink) Sent() int { return f.sent }

// Dropped returns the number of messages dropped at the queue.
func (f *FeedbackLink) Dropped() int { return f.dropped }

// BitsSent returns total bits serviced on the feedback path.
func (f *FeedbackLink) BitsSent() float64 { return f.bits }

// QueueLen returns the number of messages waiting (excluding the one
// in service).
func (f *FeedbackLink) QueueLen() int { return len(f.queue) - f.head }

// Send enqueues a feedback message of the given size; deliver runs at
// the sender after service, propagation, and the loss coin-flip all
// succeed.
func (f *FeedbackLink) Send(sizeBits float64, deliver func()) {
	f.enqueue(feedbackMsg{bits: sizeBits, deliver: deliver})
}

// SendPayload enqueues a feedback message whose delivery is reported
// through the link-level OnDeliver callback with the given payload.
// Unlike Send it needs no per-message closure, which keeps the NACK
// hot path allocation-free.
func (f *FeedbackLink) SendPayload(sizeBits float64, payload any) {
	f.enqueue(feedbackMsg{bits: sizeBits, payload: payload})
}

func (f *FeedbackLink) enqueue(msg feedbackMsg) {
	if msg.bits <= 0 {
		panic(fmt.Sprintf("netsim: feedback size %v must be positive", msg.bits))
	}
	if f.maxQueue > 0 && f.QueueLen() >= f.maxQueue {
		f.dropped++
		f.dropC.Inc()
		return
	}
	if f.head > 0 && f.head == len(f.queue) {
		// Every buffered message is spent: rewind so the backing
		// array is reused instead of growing without bound.
		f.queue = f.queue[:0]
		f.head = 0
	}
	f.queue = append(f.queue, msg)
	f.qlenG.Set(float64(f.QueueLen()))
	if !f.busy {
		f.serveNext()
	}
}

func (f *FeedbackLink) serveNext() {
	if f.head == len(f.queue) {
		f.queue = f.queue[:0]
		f.head = 0
		f.busy = false
		return
	}
	f.busy = true
	msg := f.queue[f.head]
	f.queue[f.head] = feedbackMsg{} // release references while queued
	f.head++
	f.qlenG.Set(float64(f.QueueLen()))
	f.cur = msg
	f.sim.After(msg.bits/f.rate, f.done)
}

// serviceDone completes the in-flight feedback service and starts the
// next one.
func (f *FeedbackLink) serviceDone() {
	msg := f.cur
	f.cur = feedbackMsg{}
	f.sent++
	f.bits += msg.bits
	f.sentC.Inc()
	f.bitsC.Add(uint64(msg.bits))
	if !f.loss.Lose() {
		switch {
		case msg.deliver != nil:
			if f.delay == 0 {
				msg.deliver()
			} else {
				f.sim.After(f.delay, msg.deliver)
			}
		case f.OnDeliver != nil:
			if f.delay == 0 {
				f.OnDeliver(msg.payload)
			} else {
				payload := msg.payload
				f.sim.After(f.delay, func() { f.OnDeliver(payload) })
			}
		}
	}
	f.serveNext()
}

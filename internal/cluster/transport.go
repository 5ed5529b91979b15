package cluster

import (
	"errors"
	"fmt"
	"sync"
)

// Handler consumes one encoded cluster frame addressed to the
// registered endpoint.
type Handler func(frame []byte) error

// ErrUnreachable reports a send to an endpoint the transport has no
// route for.
var ErrUnreachable = errors.New("cluster: endpoint unreachable")

// Loopback is the in-process transport: Send invokes the receiver's
// handler synchronously on the sender's goroutine, round-tripping the
// real encoded bytes — the codec cost is identical to a socket
// transport, only the kernel is missing. Synchronous delivery is also
// what makes deterministic mode deterministic: one goroutine, one
// total order of frames.
type Loopback struct {
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewLoopback builds an empty loopback transport.
func NewLoopback() *Loopback {
	return &Loopback{handlers: make(map[string]Handler)}
}

// Register binds an endpoint.
func (l *Loopback) Register(name string, h Handler) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.handlers[name]; ok {
		return fmt.Errorf("cluster: endpoint %q already registered", name)
	}
	l.handlers[name] = h
	return nil
}

// Send delivers the frame synchronously.
func (l *Loopback) Send(to string, frame []byte) error {
	l.mu.RLock()
	h := l.handlers[to]
	l.mu.RUnlock()
	if h == nil {
		return fmt.Errorf("%w: %q", ErrUnreachable, to)
	}
	return h(frame)
}

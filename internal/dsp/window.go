package dsp

// Window is a sliding time window over a sample stream: Push appends
// a sample and drops every sample older than the span before it.
//
// Eviction only advances the window's start. The live samples are
// moved to the front of the backing array when it is full, and a new
// array with a third of slack is allocated only when the live window
// fills more than three quarters of the old one. A steady stream thus
// copies each sample two to four times over its life, instead of the
// whole window on every push, and the backing array stays well below
// twice the window.
type Window struct {
	buf  Series // backing storage; the live window is buf[head:]
	head int
}

// Push appends s and drops the samples with T < s.T-span.
func (w *Window) Push(s Sample, span float64) {
	if len(w.buf) == cap(w.buf) {
		live := w.buf[w.head:]
		if 4*len(live) > 3*cap(w.buf) {
			w.buf = append(make(Series, 0, len(live)+len(live)/2+8), live...)
		} else {
			w.buf = w.buf[:copy(w.buf, live)]
		}
		w.head = 0
	}
	w.buf = append(w.buf, s)
	for w.head < len(w.buf) && w.buf[w.head].T < s.T-span {
		w.head++
	}
}

// Series returns the live window, oldest first. It aliases the
// window's storage and is valid until the next Push or Reset.
func (w *Window) Series() Series { return w.buf[w.head:] }

// Len returns the number of samples in the window.
func (w *Window) Len() int { return len(w.buf) - w.head }

// Reset empties the window, keeping its storage.
func (w *Window) Reset() {
	w.buf = w.buf[:0]
	w.head = 0
}

package server

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrStalled is the cancellation cause the watchdog uses to kill a job
// that stopped making cluster progress. The worker maps it to a requeue
// (bounded by the attempt cap) rather than a failure: a stall is usually
// environmental and transient, so the job deserves another worker.
var ErrStalled = errors.New("server: job stalled (no cluster progress)")

// watchdog supervises running jobs. Every interval it scans them; a job
// whose last progress stamp — updated per completed cluster through the
// channel.WithProgress hook — is older than stallAfter gets its context
// canceled with ErrStalled. Go cannot preempt a truly stuck goroutine, so
// "kill" means cancel-and-abandon: the worker stops waiting, requeues the
// job, and the stuck goroutine unwinds (or not) on its own without
// touching anything the new attempt depends on.
type watchdog struct {
	interval   time.Duration
	stallAfter time.Duration
	// onKill, when set, observes every stall kill the watchdog performs
	// (metrics and logging). Fixed at construction — the scan goroutine
	// starts inside newWatchdog, so a later assignment would race — and
	// called without holding w.mu.
	onKill func(*Job)

	mu      sync.Mutex
	running map[string]*Job
	stop    chan struct{}
	done    chan struct{}
}

// newWatchdog starts the scan loop. A non-positive stallAfter disables
// stall detection (the watchdog still tracks jobs for observability).
func newWatchdog(interval, stallAfter time.Duration, onKill func(*Job)) *watchdog {
	if interval <= 0 {
		interval = time.Second
	}
	w := &watchdog{
		interval:   interval,
		stallAfter: stallAfter,
		onKill:     onKill,
		running:    make(map[string]*Job),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go w.loop()
	return w
}

// watch registers a job for supervision for the duration of one attempt.
func (w *watchdog) watch(j *Job) {
	w.mu.Lock()
	w.running[j.ID] = j
	w.mu.Unlock()
}

// unwatch removes a job after its attempt ends.
func (w *watchdog) unwatch(j *Job) {
	w.mu.Lock()
	delete(w.running, j.ID)
	w.mu.Unlock()
}

// loop scans for stalls until closed.
func (w *watchdog) loop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if w.stallAfter <= 0 {
				continue
			}
			w.mu.Lock()
			var stalled []*Job
			for _, j := range w.running {
				if j.sinceProgress() > w.stallAfter {
					stalled = append(stalled, j)
				}
			}
			w.mu.Unlock()
			for _, j := range stalled {
				if j.Interrupt(fmt.Errorf("%w after %s", ErrStalled, w.stallAfter)) && w.onKill != nil {
					w.onKill(j)
				}
			}
		}
	}
}

// close stops the scan loop and waits for it to exit.
func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

// Package chaosnet is a deterministic, seeded TCP fault proxy for
// drilling HTTP clients and servers against real socket-level failure —
// not in-process fakes. Placed between the dnasimd client and server, it
// injects, per connection:
//
//   - connect latency: the upstream dial is delayed;
//   - resets: the response stream is cut mid-body with an RST
//     (SO_LINGER 0), the failure mode of a crashed peer or dropped NAT
//     entry;
//   - slow-loris: the response trickles at a few hundred bytes per
//     second, the failure mode client-side per-call timeouts exist for;
//   - truncation: the response ends with a clean FIN mid-body;
//   - corruption: bytes early in the response stream are flipped, so the
//     client sees a mangled status line or JSON body it must refuse to
//     act on;
//   - blackhole: the connection accepts and consumes the request but
//     never answers, either by per-connection draw or for scheduled
//     intervals (SetBlackhole / Scenario.BlackholePeriod).
//
// Faults are chosen per accepted connection by an RNG derived from
// (Seed, connection index), so a drill's fault schedule is reproducible
// run to run. Only the server→client direction is ever mutated: mangling
// a request could rewrite a job spec into a different valid spec, which
// would poison exactly the duplicate/conservation accounting the drills
// assert. Silent payload corruption past the early-window is likewise out
// of scope here — catching that is the durability layer's job (CRC32C
// containers), not the transport drill's.
package chaosnet

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dnastore/internal/rng"
)

// Fault names one injected failure mode.
type Fault string

const (
	FaultNone           Fault = "none"
	FaultConnectLatency Fault = "connect-latency"
	FaultReset          Fault = "reset"
	FaultSlowLoris      Fault = "slow-loris"
	FaultTruncate       Fault = "truncate"
	FaultCorrupt        Fault = "corrupt"
	FaultBlackhole      Fault = "blackhole"
)

// Scenario weights the per-connection fault draw and parameterises each
// fault. Weights are relative (they need not sum to 1); zero disables a
// fault. The zero Scenario injects nothing.
type Scenario struct {
	// Relative weights of the per-connection fault draw.
	None           float64
	ConnectLatency float64
	Reset          float64
	SlowLoris      float64
	Truncate       float64
	Corrupt        float64
	Blackhole      float64

	// MaxConnectLatency bounds the injected dial delay (default 250ms).
	MaxConnectLatency time.Duration
	// ResetAfterBytes / TruncateAfterBytes bound how far into the
	// response stream the cut lands; the actual offset is drawn uniform
	// in [1, bound] (defaults 512).
	ResetAfterBytes    int
	TruncateAfterBytes int
	// SlowLorisBytesPerSec is the trickle rate (default 400); SlowLorisFor
	// bounds how long the trickle lasts before the stream opens up
	// (default 3s) so drills terminate.
	SlowLorisBytesPerSec int
	SlowLorisFor         time.Duration
	// CorruptFlips bytes are flipped within the first CorruptWindow bytes
	// of the response stream (defaults 4 flips in 256 bytes). Keeping the
	// flips early guarantees the damage lands in the HTTP status line,
	// headers or JSON framing — i.e. is detectable by the client — rather
	// than silently inside an octet-stream payload.
	CorruptFlips  int
	CorruptWindow int

	// BlackholePeriod/BlackholeFor, when both positive, schedule recurring
	// blackhole windows: every period, new connections are swallowed for
	// the given duration. SetBlackhole toggles the same switch manually.
	BlackholePeriod time.Duration
	BlackholeFor    time.Duration
}

// withDefaults fills unset parameters.
func (sc Scenario) withDefaults() Scenario {
	if sc.MaxConnectLatency <= 0 {
		sc.MaxConnectLatency = 250 * time.Millisecond
	}
	if sc.ResetAfterBytes <= 0 {
		sc.ResetAfterBytes = 512
	}
	if sc.TruncateAfterBytes <= 0 {
		sc.TruncateAfterBytes = 512
	}
	if sc.SlowLorisBytesPerSec <= 0 {
		sc.SlowLorisBytesPerSec = 400
	}
	if sc.SlowLorisFor <= 0 {
		sc.SlowLorisFor = 3 * time.Second
	}
	if sc.CorruptFlips <= 0 {
		sc.CorruptFlips = 4
	}
	if sc.CorruptWindow <= 0 {
		sc.CorruptWindow = 256
	}
	return sc
}

// Default is the standard chaos drill mix: most connections clean, every
// fault represented.
func Default() Scenario {
	return Scenario{
		None:           0.55,
		ConnectLatency: 0.10,
		Reset:          0.10,
		SlowLoris:      0.05,
		Truncate:       0.10,
		Corrupt:        0.05,
		Blackhole:      0.05,
	}
}

// Stats counts accepted connections by injected fault.
type Stats struct {
	Conns          uint64
	None           uint64
	ConnectLatency uint64
	Reset          uint64
	SlowLoris      uint64
	Truncate       uint64
	Corrupt        uint64
	Blackhole      uint64
}

// String renders the stats as one log-friendly line.
func (s Stats) String() string {
	return fmt.Sprintf("conns=%d none=%d connect-latency=%d reset=%d slow-loris=%d truncate=%d corrupt=%d blackhole=%d",
		s.Conns, s.None, s.ConnectLatency, s.Reset, s.SlowLoris, s.Truncate, s.Corrupt, s.Blackhole)
}

// Proxy is a running chaos proxy. Create with Listen; stop with Close.
type Proxy struct {
	target string
	sc     Scenario
	seed   uint64
	ln     net.Listener

	connIdx    atomic.Uint64
	blackholed atomic.Bool
	stats      [7]atomic.Uint64 // indexed by fault order below
	wg         sync.WaitGroup
	stop       chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// statIdx maps faults onto the stats array.
func statIdx(f Fault) int {
	switch f {
	case FaultConnectLatency:
		return 1
	case FaultReset:
		return 2
	case FaultSlowLoris:
		return 3
	case FaultTruncate:
		return 4
	case FaultCorrupt:
		return 5
	case FaultBlackhole:
		return 6
	}
	return 0
}

// Listen starts a proxy on 127.0.0.1:0 forwarding to target (a host:port).
func Listen(target string, sc Scenario, seed uint64) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaosnet: listen: %w", err)
	}
	p := &Proxy{
		target: target,
		sc:     sc.withDefaults(),
		seed:   seed,
		ln:     ln,
		stop:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	if p.sc.BlackholePeriod > 0 && p.sc.BlackholeFor > 0 {
		p.wg.Add(1)
		go p.blackholeLoop()
	}
	return p, nil
}

// Addr returns the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's address as an http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetBlackhole toggles the blackhole switch: while on, new connections
// are accepted and swallowed without a single response byte.
func (p *Proxy) SetBlackhole(on bool) { p.blackholed.Store(on) }

// Stats returns a snapshot of the injected-fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:          p.connIdx.Load(),
		None:           p.stats[0].Load(),
		ConnectLatency: p.stats[1].Load(),
		Reset:          p.stats[2].Load(),
		SlowLoris:      p.stats[3].Load(),
		Truncate:       p.stats[4].Load(),
		Corrupt:        p.stats[5].Load(),
		Blackhole:      p.stats[6].Load(),
	}
}

// Close stops accepting, tears down every live connection, and waits for
// the handler goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.stop)
	err := p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// track registers a connection for teardown; it reports false when the
// proxy is already closed (the caller must drop the conn).
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

// untrack removes a finished connection.
func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// blackholeLoop schedules the recurring blackhole windows.
func (p *Proxy) blackholeLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.sc.BlackholePeriod)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.blackholed.Store(true)
			select {
			case <-p.stop:
				p.blackholed.Store(false)
				return
			case <-time.After(p.sc.BlackholeFor):
				p.blackholed.Store(false)
			}
		}
	}
}

// acceptLoop accepts and dispatches connections until closed.
func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		idx := p.connIdx.Add(1)
		if !p.track(conn) {
			conn.Close()
			return
		}
		p.wg.Add(1)
		go p.handle(conn, idx)
	}
}

// draw picks this connection's fault from the scenario weights.
func (p *Proxy) draw(r *rand.Rand) Fault {
	sc := p.sc
	weights := []struct {
		f Fault
		w float64
	}{
		{FaultNone, sc.None},
		{FaultConnectLatency, sc.ConnectLatency},
		{FaultReset, sc.Reset},
		{FaultSlowLoris, sc.SlowLoris},
		{FaultTruncate, sc.Truncate},
		{FaultCorrupt, sc.Corrupt},
		{FaultBlackhole, sc.Blackhole},
	}
	total := 0.0
	for _, w := range weights {
		if w.w > 0 {
			total += w.w
		}
	}
	if total <= 0 {
		return FaultNone
	}
	x := r.Float64() * total
	for _, w := range weights {
		if w.w <= 0 {
			continue
		}
		if x < w.w {
			return w.f
		}
		x -= w.w
	}
	return FaultNone
}

// handle runs one proxied connection under its drawn fault.
func (p *Proxy) handle(client net.Conn, idx uint64) {
	defer p.wg.Done()
	defer p.untrack(client)
	defer client.Close()

	// Mix the seed and connection index into an independent
	// per-connection RNG seed.
	r := rand.New(rand.NewSource(int64(rng.Mix64((p.seed ^ idx) + 0x9e3779b97f4a7c15))))
	fault := p.draw(r)
	if p.blackholed.Load() {
		fault = FaultBlackhole
	}
	p.stats[statIdx(fault)].Add(1)

	if fault == FaultBlackhole {
		// Swallow the request so client writes complete, answer nothing.
		// The client's per-call timeout is what ends this exchange.
		io.Copy(io.Discard, client)
		return
	}

	if fault == FaultConnectLatency {
		delay := time.Duration(r.Int63n(int64(p.sc.MaxConnectLatency)))
		select {
		case <-p.stop:
			return
		case <-time.After(delay):
		}
	}

	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return // upstream down: the client sees a reset, which is accurate
	}
	if !p.track(upstream) {
		upstream.Close()
		return
	}
	defer p.untrack(upstream)
	defer upstream.Close()

	// Client→server is always copied verbatim (mutating a request could
	// rewrite a spec into a different valid one).
	go func() {
		io.Copy(upstream, client)
		// Propagate the client's FIN so the upstream doesn't wait forever.
		if tc, ok := upstream.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()

	// Server→client runs through the fault filter.
	switch fault {
	case FaultReset:
		cut := 1 + r.Intn(p.sc.ResetAfterBytes)
		io.CopyN(client, upstream, int64(cut))
		if tc, ok := client.(*net.TCPConn); ok {
			tc.SetLinger(0) // make Close send RST, not FIN
		}
	case FaultTruncate:
		cut := 1 + r.Intn(p.sc.TruncateAfterBytes)
		io.CopyN(client, upstream, int64(cut))
	case FaultCorrupt:
		p.copyCorrupting(client, upstream, r)
	case FaultSlowLoris:
		p.copyThrottled(client, upstream)
	default:
		io.Copy(client, upstream)
	}
}

// copyCorrupting forwards the stream flipping CorruptFlips bytes at
// random offsets within the first CorruptWindow bytes.
func (p *Proxy) copyCorrupting(dst io.Writer, src io.Reader, r *rand.Rand) {
	window := make([]byte, p.sc.CorruptWindow)
	n, _ := io.ReadFull(src, window)
	window = window[:n]
	for i := 0; i < p.sc.CorruptFlips && n > 0; i++ {
		window[r.Intn(n)] ^= 0xff
	}
	if _, err := dst.Write(window); err != nil {
		return
	}
	io.Copy(dst, src)
}

// copyThrottled trickles the stream at SlowLorisBytesPerSec for
// SlowLorisFor, then opens up.
func (p *Proxy) copyThrottled(dst io.Writer, src io.Reader) {
	const chunk = 16
	interval := time.Second * chunk / time.Duration(p.sc.SlowLorisBytesPerSec)
	deadline := time.Now().Add(p.sc.SlowLorisFor)
	buf := make([]byte, chunk)
	for time.Now().Before(deadline) {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
		select {
		case <-p.stop:
			return
		case <-time.After(interval):
		}
	}
	io.Copy(dst, src)
}

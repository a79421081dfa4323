package transport

import (
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"
)

// ChaosConfig parameterizes a ChaosNet. The zero value is a perfect,
// loss-free in-process network.
type ChaosConfig struct {
	// Seed drives every probabilistic decision; two ChaosNets with the
	// same seed and the same traffic make the same decisions, so failing
	// runs replay with `go test -netlock.seed=N`.
	Seed int64
	// Drop is the probability an edge datagram is silently discarded.
	Drop float64
	// Dup is the probability an edge datagram is delivered twice.
	Dup float64
	// Delay is the probability a delivery is deferred by a random amount
	// up to chaosMaxDelay (reordering).
	Delay float64
}

// chaosMaxDelay bounds a delayed delivery's random delay.
const chaosMaxDelay = 2 * time.Millisecond

// ChaosNet is an in-process Network with seeded, packet-level chaos, the
// adversarial substrate of the conformance and scenario suites. Links where
// both endpoints are marked reliable (the in-rack switch<->server fabric,
// which the q1/q2 protocol assumes lossless and ordered) deliver
// synchronously in order; every other link — the client edge — drops,
// duplicates, and delays datagrams under the seeded rand.
type ChaosNet struct {
	mu       sync.Mutex
	rng      *rand.Rand
	cfg      ChaosConfig
	conns    map[netip.AddrPort]*chaosConn
	reliable map[netip.AddrPort]bool
	nextPort uint16

	// filter, when set, drops any edge datagram it returns true for
	// (called with the net's mutex held).
	filter func(data []byte, from, to netip.AddrPort) bool

	wg sync.WaitGroup // in-flight delayed deliveries
}

// NewChaosNet builds a chaos network.
func NewChaosNet(cfg ChaosConfig) *ChaosNet {
	return &ChaosNet{
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		cfg:      cfg,
		conns:    make(map[netip.AddrPort]*chaosConn),
		reliable: make(map[netip.AddrPort]bool),
	}
}

// Listen assigns the next fake address; the requested bind address only
// matters for its host part, which is ignored (everything shares one fake
// subnet).
func (cn *ChaosNet) Listen(string) (PacketConn, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	cn.nextPort++
	ap := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 99, 0, 1}), cn.nextPort)
	cc := &chaosConn{
		cn:     cn,
		local:  ap,
		inbox:  make(chan chaosPacket, 4096),
		closed: make(chan struct{}),
	}
	cn.conns[ap] = cc
	return cc, nil
}

// MarkReliable exempts addr from chaos when talking to other reliable
// peers — the in-rack fabric between the switch and its lock servers.
func (cn *ChaosNet) MarkReliable(addr string) error {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		return err
	}
	cn.mu.Lock()
	cn.reliable[normAddrPort(ap)] = true
	cn.mu.Unlock()
	return nil
}

// SetFilter installs a targeted drop rule for edge datagrams (nil clears
// it). The filter runs with the net's mutex held and must not block.
func (cn *ChaosNet) SetFilter(fn func(data []byte, from, to netip.AddrPort) bool) {
	cn.mu.Lock()
	cn.filter = fn
	cn.mu.Unlock()
}

// Wait blocks until every delayed delivery has landed. Call it only after
// all senders have shut down, or new delays may race the wait.
func (cn *ChaosNet) Wait() { cn.wg.Wait() }

func (cn *ChaosNet) send(from *chaosConn, data []byte, to netip.AddrPort) {
	cn.mu.Lock()
	dst := cn.conns[to]
	if dst == nil {
		cn.mu.Unlock()
		return
	}
	pkt := chaosPacket{data: append([]byte(nil), data...), from: from.local}
	if cn.reliable[from.local] && cn.reliable[to] {
		cn.mu.Unlock()
		dst.deliver(pkt)
		return
	}
	if cn.filter != nil && cn.filter(pkt.data, from.local, to) {
		cn.mu.Unlock()
		return
	}
	if cn.rng.Float64() < cn.cfg.Drop {
		cn.mu.Unlock()
		return
	}
	copies := 1
	if cn.rng.Float64() < cn.cfg.Dup {
		copies = 2
	}
	var delays [2]time.Duration
	for i := 0; i < copies; i++ {
		if cn.rng.Float64() < cn.cfg.Delay {
			delays[i] = time.Duration(cn.rng.Int63n(int64(chaosMaxDelay)))
		}
	}
	cn.mu.Unlock()
	for i := 0; i < copies; i++ {
		if delays[i] == 0 {
			dst.deliver(pkt)
			continue
		}
		cn.wg.Add(1)
		go func(d time.Duration) {
			defer cn.wg.Done()
			time.Sleep(d)
			dst.deliver(pkt)
		}(delays[i])
	}
}

type chaosPacket struct {
	data []byte
	from netip.AddrPort
}

type chaosConn struct {
	cn        *ChaosNet
	local     netip.AddrPort
	inbox     chan chaosPacket
	closed    chan struct{}
	closeOnce sync.Once
}

func (cc *chaosConn) deliver(p chaosPacket) {
	select {
	case <-cc.closed:
		return
	default:
	}
	select {
	case cc.inbox <- p:
	default: // inbox full: drop, it's UDP
	}
}

func (cc *chaosConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	select {
	case <-cc.closed:
		return 0, netip.AddrPort{}, net.ErrClosed
	case p := <-cc.inbox:
		return copy(b, p.data), p.from, nil
	}
}

func (cc *chaosConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	select {
	case <-cc.closed:
		return 0, net.ErrClosed
	default:
	}
	cc.cn.send(cc, b, normAddrPort(addr))
	return len(b), nil
}

func (cc *chaosConn) Close() error {
	cc.closeOnce.Do(func() {
		close(cc.closed)
		cc.cn.mu.Lock()
		delete(cc.cn.conns, cc.local)
		cc.cn.mu.Unlock()
	})
	return nil
}

func (cc *chaosConn) LocalAddr() net.Addr {
	return net.UDPAddrFromAddrPort(cc.local)
}

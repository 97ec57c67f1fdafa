package main

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/monitor"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
	"openmb/internal/trace"
)

// quietPeriod is the controller's quiet period: the deployment value a
// daemon sets with -quiet-period. Every other option keeps its default.
const quietPeriod = 10 * time.Millisecond

// loopback is the listen address every controller and node uses: traffic
// between controller, nodes and middleboxes crosses the host's loopback
// interface, not a real link.
const loopback = "127.0.0.1:0"

// campus is the address block every workload's flows come from. Its two
// halves are the two flow sets a workload tells apart by prefix: the
// moved or migrated flows sit under movedHalf, the others under 10.0/16.
var campus = netip.MustParsePrefix("10.0.0.0/15")

const movedHalf = "nw_src=10.1.0.0/16"

// flowSet is a set of flows of the Cloud trace (internal/trace), the
// repository's stand-in for the paper's campus-to-cloud border trace: its
// address pools, its HTTP share (0.55), its real request payloads and its
// flow sizes and arrival order.
type flowSet struct {
	keys []packet.FlowKey // forward keys, source in the campus
	http []bool
	// first holds each flow's packets up to and including its first
	// request: the handshake and one forward payload.
	first [][]*packet.Packet
	// order is the flow of every packet of the kept flows, in trace time
	// order: the flow mix the packet schedules cycle through.
	order []int32
	// byDst maps a flow's destination endpoint to its index, which still
	// names the flow after a NAT rewrote its source.
	byDst map[netip.AddrPort]int
}

type flowReq struct {
	seed                int64
	low, high, meanPkts int
}

// flowCache keeps each run's flow sets: a run builds its workload several
// times (setup_s is a median), always from the same inputs.
var flowCache = map[flowReq]*flowSet{}

// cloudFlows takes, from the Cloud trace of seed, the first low flows
// whose source is in 10.0.0.0/16 followed by the first high flows whose
// source is in 10.1.0.0/16. A flow whose key or destination endpoint an
// earlier flow already uses is skipped, so every flow is recognised by its
// destination. meanPkts is the trace's MeanPacketsPerFlow (0: its default
// of 12, which gives a flow 1 to 24 request/response pairs); a workload
// that sends only each flow's first request asks for 1 (one or two
// pairs), so the trace builds few packets that are never sent. The flow
// sets are shared; callers copy packets before they send them.
func cloudFlows(seed int64, low, high, meanPkts int) *flowSet {
	req := flowReq{seed, low, high, meanPkts}
	if fs := flowCache[req]; fs != nil {
		return fs
	}
	// Each half of the campus draws about half the trace's flows; ask for
	// enough that both halves fill, and more on the rare seed they do not.
	for n := 2*max(low, high) + max(low, high)/5 + 64; ; n *= 2 {
		tr := trace.Cloud(trace.CloudConfig{Seed: seed, Flows: n, MeanPacketsPerFlow: meanPkts, CampusPrefix: campus})
		if fs := pickFlows(tr, low, high); fs != nil {
			flowCache[req] = fs
			return fs
		}
	}
}

// pickFlows selects the flows of tr as cloudFlows describes, or returns
// nil if tr holds too few.
func pickFlows(tr *trace.Trace, low, high int) *flowSet {
	var keep [2][]trace.FlowInfo
	dsts := map[netip.AddrPort]bool{}
	for _, f := range tr.Flows {
		// A repeated destination is skipped; so is a repeated key, which
		// repeats the destination too.
		half := int(f.Key.SrcIP.As4()[1] & 1)
		dst := netip.AddrPortFrom(f.Key.DstIP, f.Key.DstPort)
		if len(keep[half]) == [2]int{low, high}[half] || dsts[dst] {
			continue
		}
		dsts[dst] = true
		keep[half] = append(keep[half], f)
	}
	if len(keep[0]) < low || len(keep[1]) < high {
		return nil
	}
	fs := &flowSet{byDst: make(map[netip.AddrPort]int, low+high)}
	idx := make(map[packet.FlowKey]int, low+high)
	for i, f := range append(keep[0], keep[1]...) {
		idx[f.Key] = i
		fs.keys = append(fs.keys, f.Key)
		fs.http = append(fs.http, f.HTTP)
		fs.byDst[netip.AddrPortFrom(f.Key.DstIP, f.Key.DstPort)] = i
	}
	fs.first = make([][]*packet.Packet, len(fs.keys))
	for _, p := range tr.Packets {
		k := p.Flow()
		i, ok := idx[k]
		if !ok {
			i, ok = idx[k.Reverse()]
		}
		if !ok {
			continue
		}
		if n := len(fs.first[i]); n == 0 || len(fs.first[i][n-1].Payload) == 0 {
			fs.first[i] = append(fs.first[i], p)
		}
		fs.order = append(fs.order, int32(i))
	}
	return fs
}

// firstRequest returns fresh copies of flow f's packets up to and
// including its first request: what the move and xnode workloads preload.
func (fs *flowSet) firstRequest(f int) []*packet.Packet {
	out := make([]*packet.Packet, len(fs.first[f]))
	for i, p := range fs.first[f] {
		out[i] = p.CloneDetached()
	}
	return out
}

// flowOf recognises a packet's flow by its destination endpoint.
func (fs *flowSet) flowOf(p *packet.Packet) (int, bool) {
	i, ok := fs.byDst[netip.AddrPortFrom(p.DstIP, p.DstPort)]
	return i, ok
}

// pkt builds a minimum-size TCP packet of flow k (no payload).
func pkt(k packet.FlowKey, flags uint8) *packet.Packet {
	return &packet.Packet{
		SrcIP: k.SrcIP, DstIP: k.DstIP, Proto: k.Proto,
		SrcPort: k.SrcPort, DstPort: k.DstPort,
		Flags: flags, TTL: 64,
	}
}

// ---------------------------------------------------------------------------
// Middlebox logic adapters.

// tap is the monitor as a chain hop: it taps every packet exactly as the
// passive monitor does on a mirror port and then forwards the packet, a
// whole burst at a time.
type tap struct{ *monitor.Monitor }

func (t tap) Process(ctx *mbox.Context, p *packet.Packet) {
	t.Monitor.Process(ctx, p)
	ctx.Emit(p)
}

func (t tap) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	t.Monitor.ProcessBurst(ctxs, pkts)
	for i := range pkts {
		ctxs[i].Emit(pkts[i])
	}
}

// countLogic holds no state and counts the packets it is handed; it
// isolates the runtime's own ingress and dispatch cost.
type countLogic struct {
	n   atomic.Int64
	cfg *state.ConfigTree
}

func (l *countLogic) Kind() string                              { return "count" }
func (l *countLogic) Process(*mbox.Context, *packet.Packet)     { l.n.Add(1) }
func (l *countLogic) PutPerflow(state.Class, state.Chunk) error { return nil }
func (l *countLogic) DelPerflow(state.Class, packet.FieldMatch) (int, error) {
	return 0, nil
}
func (l *countLogic) GetShared(state.Class, func()) ([]byte, error) {
	return nil, mbox.ErrNoSharedState
}
func (l *countLogic) PutShared(state.Class, []byte) error    { return nil }
func (l *countLogic) Stats(packet.FieldMatch) sbi.StatsReply { return sbi.StatsReply{} }
func (l *countLogic) Config() *state.ConfigTree              { return l.cfg }
func (l *countLogic) GetPerflow(state.Class, packet.FieldMatch, func(packet.FlowKey, func(func()) ([]byte, error)) error) error {
	return nil
}

// ---------------------------------------------------------------------------
// Controller plumbing.

// register connects rt to the controller at addr over loopback TCP and
// waits until waitFor reports the registration; it returns the time from
// Connect to a successful wait.
func register(rt *mbox.Runtime, addr string, waitFor func(string, time.Duration) error, tr *tracer, op uint64) (time.Duration, error) {
	id := tr.begin("core.Connect+WaitForMB", 0, op)
	start := time.Now()
	if err := rt.Connect(sbi.TCPTransport{}, addr); err != nil {
		return 0, err
	}
	if err := waitFor(rt.Name(), 10*time.Second); err != nil {
		return 0, err
	}
	d := time.Since(start)
	tr.end(id)
	return d, nil
}

// newController starts a controller with default options and the short
// quiet period, listening on loopback.
func newController() (*core.Controller, error) {
	c := core.NewController(core.Options{QuietPeriod: quietPeriod})
	if err := c.Serve(sbi.TCPTransport{}, loopback); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// preload pushes pkts through rt's ingress in bursts and waits until the
// runtime has processed them all. It keeps the ingress ring at most half
// full, sleeping while the runtime works the queue down.
func preload(rt *mbox.Runtime, pkts []*packet.Packet) error {
	const burst = 64
	half := rt.RingStats().Capacity / 2
	for i := 0; i < len(pkts); i += burst {
		for rt.RingStats().Live > half {
			time.Sleep(100 * time.Microsecond)
		}
		j := min(i+burst, len(pkts))
		rt.HandleBurst(append([]*packet.Packet(nil), pkts[i:j]...))
	}
	if !rt.Drain(10 * time.Second) {
		return fmt.Errorf("preload %s: runtime did not drain", rt.Name())
	}
	if d := rt.RingStats().DroppedPackets; d > 0 {
		return fmt.Errorf("preload %s: %d packets shed", rt.Name(), d)
	}
	return nil
}

// waitCond polls cond every millisecond until it holds or d passes.
func waitCond(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// sample is one packet's latency in µs and its arrival time since the
// workload's epoch.
type sample struct {
	at time.Duration
	us float64
}

// latencies collects per-packet latencies from the sink's goroutine(s).
type latencies struct {
	mu sync.Mutex
	s  []sample
}

// add records a packet stamped with sent (since the epoch) arriving at now.
func (l *latencies) add(now time.Duration, sent int64) {
	l.mu.Lock()
	l.s = append(l.s, sample{now, float64(now-time.Duration(sent)) / 1e3})
	l.mu.Unlock()
}

func (l *latencies) take() []sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.s
	l.s = nil
	return out
}

// errList keeps the first few oracle failures.
type errList struct {
	mu    sync.Mutex
	first []string
}

func (e *errList) addf(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.first) < 5 {
		e.first = append(e.first, fmt.Sprintf(format, args...))
	}
}

func (e *errList) get() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.first...)
}

// discard is an endpoint that releases whatever reaches it.
type discard struct{}

func (discard) HandlePacket(p *packet.Packet) { p.Release() }

package main

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/netsim"
	"openmb/internal/packet"
	"openmb/internal/sdn"
)

// The chain workload: a closed loop keeps a fixed number of minimum-size
// TCP packets in flight. Each enters at the generator's host port, crosses
// a link into the switch and a link into the co-located monitor→NAT→IPS
// chain (runtimes handing whole bursts to each other); the IPS hands its
// output back to the switch, which sends it over a last link to the
// benchmark's sink.

// natExternal is the NAT's external address.
var natExternal = netip.MustParseAddr("192.0.2.1")

type chainParams struct {
	flows    int   // distinct flows
	inflight int64 // packets in flight in the closed loop
	preload  int   // packets per flow sent during set-up
}

const chainBurst = 64

type chain struct {
	p     chainParams
	flows *flowSet
	sched []int32
	tmpl  []*packet.Packet
	pool  *packet.Pool
	epoch time.Time

	net  *netsim.Network
	ctrl *core.Controller
	mon  *monitor.Monitor
	rts  []*mbox.Runtime
	sink *chainSink
	gate gate

	pos      int
	seq      []uint16
	sent     []uint64
	sentAll  uint64
	register []float64
}

func newChain(cfg config) workload {
	p := chainParams{flows: 1024, inflight: 1024, preload: 64}
	if cfg.short {
		p.flows, p.inflight, p.preload = 64, 256, 4
	}
	c := &chain{
		p:     p,
		flows: cloudFlows(cfg.seed, p.flows, 0, 0),
		pool:  packet.NewPool(packet.PoolOptions{}),
		epoch: time.Now(),
		seq:   make([]uint16, p.flows),
		sent:  make([]uint64, p.flows),
	}
	// The trace's packet order is the flow mix; each of its packets, in
	// either direction, becomes one minimum-size forward packet of its
	// flow.
	c.sched = c.flows.order
	for _, k := range c.flows.keys {
		c.tmpl = append(c.tmpl, pkt(k, packet.FlagACK))
	}
	c.gate.wake = make(chan struct{}, 1)
	c.sink = newChainSink(c.flows, natExternal, &c.gate, c.epoch)
	return c
}

func (c *chain) setup(tr *tracer) error {
	c.net = netsim.New()
	sw := netsim.NewSwitch(c.net, "sw")
	c.net.Attach("sw", sw)
	c.net.Attach("gen", discard{}) // the generator only sends; nothing is routed to it
	c.mon = monitor.New()
	rtMon := mbox.New("chain-mon", tap{c.mon}, mbox.Options{})
	rtNAT := mbox.New("chain-nat", nat.New(natExternal), mbox.Options{})
	rtIPS := mbox.New("chain-ips", ips.New(), mbox.Options{})
	c.rts = []*mbox.Runtime{rtMon, rtNAT, rtIPS}
	rtMon.SetForward(rtNAT.HandlePacket)
	rtMon.SetForwardBurst(rtNAT.HandleBurst)
	rtNAT.SetForward(rtIPS.HandlePacket)
	rtNAT.SetForwardBurst(rtIPS.HandleBurst)
	// The IPS is co-located with the switch: its output re-enters the
	// switch directly, which forwards it over the last link to the sink.
	rtIPS.SetForward(sw.HandlePacket)
	rtIPS.SetForwardBurst(sw.HandleBurst)
	c.net.Attach("chain", rtMon)
	c.net.Attach("sink", c.sink)
	for _, pair := range [][2]string{{"gen", "sw"}, {"sw", "chain"}, {"sw", "sink"}} {
		if err := c.net.Connect(pair[0], pair[1], 0); err != nil {
			return err
		}
	}
	routes := sdn.NewController()
	routes.AddSwitch(sw)
	toChain, _ := packet.ParseFieldMatch("nw_src=10.0.0.0/8")
	toSink, _ := packet.ParseFieldMatch("nw_src=" + natExternal.String() + "/32")
	if _, err := routes.Route(toChain, 10, []sdn.Hop{{Switch: "sw", OutPort: "chain"}}); err != nil {
		return err
	}
	if _, err := routes.Route(toSink, 10, []sdn.Hop{{Switch: "sw", OutPort: "sink"}}); err != nil {
		return err
	}

	var err error
	if c.ctrl, err = newController(); err != nil {
		return err
	}
	for i, rt := range c.rts {
		d, err := register(rt, c.ctrl.Addr(), c.ctrl.WaitForMB, tr, uint64(i+1))
		if err != nil {
			return err
		}
		c.register = append(c.register, d.Seconds()*1e3)
	}

	// Preload: one packet per flow, so every NF holds state for every flow
	// and every flow has its NAT port, then the schedule's first packets
	// through the closed loop until the pools and tables are warm.
	for f := range c.tmpl {
		c.gate.inflight.Add(1)
		if err := c.net.SendBurst("gen", "sw", []*packet.Packet{c.next(f)}); err != nil {
			return err
		}
		if err := c.gate.wait(c.p.inflight, 10*time.Second); err != nil {
			return err
		}
	}
	target := c.sentAll + uint64(c.p.preload*c.p.flows)
	if err := c.pump(func() bool { return c.sentAll >= target }, nil); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	c.sink.lat.take()
	return nil
}

// pump runs the closed loop until done reports true, then waits until
// every packet in flight has reached the sink.
func (c *chain) pump(done func() bool, tr *tracer) error {
	burst := make([]*packet.Packet, chainBurst)
	for op := uint64(1); !done(); op++ {
		if err := c.gate.wait(c.p.inflight/2, 10*time.Second); err != nil {
			return err
		}
		for c.gate.inflight.Load()+chainBurst <= c.p.inflight {
			ts := int64(time.Since(c.epoch))
			for i := range burst {
				f := int(c.sched[c.pos])
				c.pos = (c.pos + 1) % len(c.sched)
				burst[i] = c.next(f)
				burst[i].Timestamp = ts
			}
			c.gate.inflight.Add(chainBurst)
			id := tr.begin("netsim.SendBurst", 0, op)
			if err := c.net.SendBurst("gen", "sw", burst); err != nil {
				return err
			}
			tr.end(id)
		}
	}
	return c.gate.wait(0, 10*time.Second)
}

// next clones flow f's template with the flow's next sequence number.
func (c *chain) next(f int) *packet.Packet {
	p := c.pool.Clone(c.tmpl[f])
	p.ID = c.seq[f]
	p.Timestamp = int64(time.Since(c.epoch))
	c.seq[f]++
	c.sent[f]++
	c.sentAll++
	return p
}

func (c *chain) measure(d time.Duration, tr *tracer) (phase, error) {
	stopSampler := sampleRings(c.rts, tr != nil)
	delivered0 := c.sink.delivered.Load()
	sent0 := c.sentAll
	start := time.Now()
	deadline := start.Add(d)
	if err := c.pump(func() bool { return !time.Now().Before(deadline) }, tr); err != nil {
		stopSampler()
		return phase{}, err
	}
	ph := phase{
		ops:  int(c.sentAll - sent0),
		work: float64(c.sink.delivered.Load() - delivered0),
		busy: time.Since(start),
		lat:  windows(c.sink.lat.take(), start.Sub(c.epoch), window, int(d/window)),
		// p99: each one-second window holds tens of thousands of samples,
		// but p99.9 of a closed loop on two vCPUs mostly times the host
		// descheduling a vCPU, which no change to the program moves.
		tailQ: 0.99,
		extra: map[string]float64{},
	}
	if depth := stopSampler(); tr != nil {
		ph.extra["mbox.ring_depth_max"] = float64(depth)
	}
	return ph, nil
}

func (c *chain) verify() []string {
	errs := c.sink.finish(c.sent)
	for f, k := range c.flows.keys {
		rec, ok := c.mon.FlowRecord(k)
		got := rec.Packets[0] + rec.Packets[1]
		if !ok || got != c.sent[f] {
			errs = append(errs, fmt.Sprintf("monitor: flow %d counted %d packets, generator sent %d", f, got, c.sent[f]))
			break
		}
	}
	return errs
}

func (c *chain) counters() map[string]float64 {
	m := runtimeCounters(c.rts)
	m["netsim.dropped"] = float64(c.net.Dropped())
	addControllerCounters(m, c.ctrl)
	m["core.register_ms"] = median(c.register)
	return m
}

func (c *chain) inputs() layerInputs {
	return layerInputs{pkts: c.tmpl, logics: []logicState{{kind: "monitor", logic: c.mon}}, match: packet.MatchAll}
}

func (c *chain) ledger(l, e map[string]float64) ledgerSpec {
	return ledgerSpec{
		op: "packet", unit: "ns",
		rows: []ledgerRow{
			{"packet.clone", l["packet.clone_ns"], 1},
			{"netsim.link (gen→sw)", l["netsim.link_ns_per_pkt"], 1},
			{"netsim.switch (classify + out link)", l["netsim.switch_ns_per_pkt"], 2},
			{"mbox.ingress (3 runtimes)", l["mbox.ingress_ns_per_pkt"], 3},
			{"monitor.ProcessBurst", l["monitor.ns_per_pkt"], 1},
			{"nat.ProcessBurst", l["nat.ns_per_pkt"], 1},
			{"ips.ProcessBurst", l["ips.ns_per_pkt"], 1},
		},
		e2e:      e["cpu_us_per_work"] * 1e3,
		e2eLabel: "process CPU per delivered packet",
		notes: []string{
			"rows are CPU work; the chain runs them on several goroutines at once, so wall time per packet is lower than their sum",
			"remainder: goroutine wake-ups and channel hand-offs between link pumps and runtime workers, the generator and the sink's oracle",
		},
	}
}

func (c *chain) close() {
	for _, rt := range c.rts {
		rt.Close()
	}
	if c.ctrl != nil {
		c.ctrl.Close()
	}
	if c.net != nil {
		c.net.Stop()
	}
}

// ---------------------------------------------------------------------------
// Closed-loop gate.

// gate counts packets in flight. The generator blocks in wait until the
// count falls to a limit; the sink wakes it instead of the generator
// spinning.
type gate struct {
	inflight atomic.Int64
	limit    atomic.Int64
	waiting  atomic.Bool
	wake     chan struct{} // capacity 1: one pending wake-up is enough
}

func (g *gate) done(n int) {
	if g.inflight.Add(-int64(n)) <= g.limit.Load() && g.waiting.Load() {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

func (g *gate) wait(limit int64, timeout time.Duration) error {
	if g.inflight.Load() <= limit {
		return nil
	}
	g.limit.Store(limit)
	g.waiting.Store(true)
	defer g.waiting.Store(false)
	t := time.NewTimer(timeout)
	defer t.Stop()
	for g.inflight.Load() > limit {
		select {
		case <-g.wake:
		case <-t.C:
			return fmt.Errorf("stalled: %d packets still in flight after %v", g.inflight.Load(), timeout)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sink and its oracle.

// chainSink is the benchmark's own endpoint at the end of the chain. It
// checks every packet against what the generator sent: the packet carries
// the NAT's external address, its flow (recognised by destination) keeps
// one external port that no other flow uses, and its sequence number in
// Packet.ID is the flow's next one, so a lost, duplicated or reordered
// packet shows. One link pump delivers to it, so its tables need no lock.
type chainSink struct {
	flows *flowSet
	ext   netip.Addr
	gate  *gate
	epoch time.Time

	next  []uint16
	recv  []uint64
	port  []uint16
	owner map[uint16]int
	errs  errList

	delivered atomic.Uint64
	lat       latencies
}

func newChainSink(fs *flowSet, ext netip.Addr, g *gate, epoch time.Time) *chainSink {
	n := len(fs.keys)
	return &chainSink{
		flows: fs, ext: ext, gate: g, epoch: epoch,
		next: make([]uint16, n), recv: make([]uint64, n), port: make([]uint16, n),
		owner: make(map[uint16]int, n),
	}
}

func (s *chainSink) HandlePacket(p *packet.Packet) {
	s.observe(p, time.Since(s.epoch))
	p.Release()
	s.delivered.Add(1)
	s.gate.done(1)
}

func (s *chainSink) HandleBurst(ps []*packet.Packet) {
	now := time.Since(s.epoch)
	for _, p := range ps {
		s.observe(p, now)
		p.Release()
	}
	s.delivered.Add(uint64(len(ps)))
	s.gate.done(len(ps))
}

// observe checks one delivered packet; now is the time since the epoch the
// generator stamps into Packet.Timestamp.
func (s *chainSink) observe(p *packet.Packet, now time.Duration) {
	f, ok := s.flows.flowOf(p)
	if !ok {
		s.errs.addf("sink: packet %v belongs to no generated flow", p.Flow())
		return
	}
	if p.SrcIP != s.ext {
		s.errs.addf("sink: flow %d left with source %v, want the NAT address %v", f, p.SrcIP, s.ext)
	}
	switch {
	case s.port[f] == 0:
		if o, taken := s.owner[p.SrcPort]; taken && o != f {
			s.errs.addf("sink: flows %d and %d share external port %d", o, f, p.SrcPort)
		}
		s.owner[p.SrcPort] = f
		s.port[f] = p.SrcPort
	case s.port[f] != p.SrcPort:
		s.errs.addf("sink: flow %d moved from external port %d to %d", f, s.port[f], p.SrcPort)
	}
	if p.ID != s.next[f] {
		s.errs.addf("sink: flow %d delivered sequence %d, want %d (lost, duplicated or reordered)", f, p.ID, s.next[f])
	}
	s.next[f] = p.ID + 1
	s.recv[f]++
	if p.ID&7 == 0 {
		s.lat.add(now, p.Timestamp)
	}
}

// finish compares what arrived with what the generator sent per flow.
func (s *chainSink) finish(sent []uint64) []string {
	for f := range sent {
		if s.recv[f] != sent[f] {
			s.errs.addf("sink: flow %d delivered %d packets, generator sent %d", f, s.recv[f], sent[f])
		}
	}
	return s.errs.get()
}

// ---------------------------------------------------------------------------
// Counters shared by workloads.

// sampleRings, when on, samples the runtimes' ingress depth every
// millisecond until the returned stop function is called; stop returns the
// deepest queue seen.
func sampleRings(rts []*mbox.Runtime, on bool) func() int {
	if !on {
		return func() int { return 0 }
	}
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		deepest := 0
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- deepest
				return
			case <-t.C:
				for _, rt := range rts {
					rs := rt.RingStats()
					deepest = max(deepest, rs.Live+rs.Replay)
				}
			}
		}
	}()
	return func() int {
		close(stop)
		return <-done
	}
}

func runtimeCounters(rts []*mbox.Runtime) map[string]float64 {
	m := map[string]float64{}
	for _, rt := range rts {
		rs := rt.RingStats()
		mm := rt.Metrics()
		m["mbox.ring_sheds"] += float64(rs.DroppedPackets + rs.DroppedReplays)
		m["mbox.events_raised"] += float64(mm.EventsRaised)
		m["mbox.replayed"] += float64(mm.Replayed)
	}
	return m
}

func addControllerCounters(m map[string]float64, c *core.Controller) {
	cm := c.Metrics()
	m["core.events_forwarded"] += float64(cm.EventsForwarded)
	m["core.events_buffered"] += float64(cm.EventsBuffered)
	var sent, flushes uint64
	for _, wc := range c.ConnCounters() {
		sent += wc.Sent
		flushes += wc.Flushes
	}
	if flushes > 0 {
		m["sbi.frames_per_flush"] = float64(sent) / float64(flushes)
	}
	_, get, put := c.OpLatencies()
	m["core.get_stream_ms"] = get.Quantile(0.5).Seconds() * 1e3
	m["core.put_ack_ms"] = put.Quantile(0.5).Seconds() * 1e3
}

package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"

	"openmb/internal/apps"
	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/monitor"
	"openmb/internal/netsim"
	"openmb/internal/packet"
	"openmb/internal/sdn"
)

// The migrate workload: the paper's live migration. Open-loop traffic
// enters the switch at a fixed rate and goes to a monitor, which forwards
// it to the sink. On a fixed cadence apps.Env.MigrateFlows moves the half
// of the flows under 10.1.0.0/16 to the other monitor and re-routes them
// with sdn.Controller.Route; the next migration moves them back.

type migrateParams struct {
	flows   int           // flows, half of them migrate
	rate    float64       // offered packets per second
	cadence time.Duration // time between migrations
	preload int           // packets per flow sent during set-up
}

type migrate struct {
	p     migrateParams
	flows *flowSet
	sched []int32
	tmpl  []*packet.Packet
	pool  *packet.Pool
	epoch time.Time

	net    *netsim.Network
	routes *sdn.Controller
	ctrl   *core.Controller
	env    apps.Env
	mons   [2]*monitor.Monitor
	rts    []*mbox.Runtime
	sink   *migrateSink
	gate   gate
	half   packet.FieldMatch

	at       int         // monitor currently serving the migrating half
	route    sdn.RouteID // its route
	pos      int
	sent     []uint64
	sentAll  uint64
	register []float64
	quiet    []float64
}

func newMigrate(cfg config) workload {
	p := migrateParams{flows: 2048, rate: 10000, cadence: 100 * time.Millisecond, preload: 32}
	if cfg.short {
		p.flows, p.rate, p.cadence, p.preload = 128, 5000, 100*time.Millisecond, 2
	}
	m := &migrate{
		p:     p,
		flows: cloudFlows(cfg.seed, p.flows/2, p.flows-p.flows/2, 0),
		pool:  packet.NewPool(packet.PoolOptions{}),
		epoch: time.Now(),
		sent:  make([]uint64, p.flows),
	}
	m.half, _ = packet.ParseFieldMatch(movedHalf)
	// As in the chain, the trace's packet order is the flow mix.
	m.sched = m.flows.order
	for _, k := range m.flows.keys {
		m.tmpl = append(m.tmpl, pkt(k, packet.FlagACK))
	}
	m.gate.wake = make(chan struct{}, 1)
	m.sink = &migrateSink{flows: m.flows, epoch: m.epoch, gate: &m.gate, recv: make([]uint64, p.flows)}
	return m
}

func (m *migrate) setup(tr *tracer) error {
	m.net = netsim.New()
	sw := netsim.NewSwitch(m.net, "sw")
	m.net.Attach("sw", sw)
	m.net.Attach("gen", discard{})
	m.net.Attach("sink", m.sink)
	for i := range m.mons {
		name := fmt.Sprintf("mon-%c", 'a'+i)
		m.mons[i] = monitor.New()
		rt := mbox.New(name, tap{m.mons[i]}, mbox.Options{})
		rt.SetForward(func(p *packet.Packet) { _ = m.net.Send(name, "sink", p) })
		rt.SetForwardBurst(func(ps []*packet.Packet) { _ = m.net.SendBurst(name, "sink", ps) })
		m.rts = append(m.rts, rt)
		m.net.Attach(name, rt)
	}
	for _, pair := range [][2]string{{"gen", "sw"}, {"sw", "mon-a"}, {"sw", "mon-b"}, {"mon-a", "sink"}, {"mon-b", "sink"}} {
		if err := m.net.Connect(pair[0], pair[1], 0); err != nil {
			return err
		}
	}
	m.routes = sdn.NewController()
	m.routes.AddSwitch(sw)
	low, _ := packet.ParseFieldMatch("nw_src=10.0.0.0/16")
	if _, err := m.routes.Route(low, 10, []sdn.Hop{{Switch: "sw", OutPort: "mon-a"}}); err != nil {
		return err
	}
	var err error
	if m.route, err = m.routes.Route(m.half, 10, []sdn.Hop{{Switch: "sw", OutPort: "mon-a"}}); err != nil {
		return err
	}
	if m.ctrl, err = newController(); err != nil {
		return err
	}
	m.env = apps.Env{MB: m.ctrl}
	for i, rt := range m.rts {
		d, err := register(rt, m.ctrl.Addr(), m.ctrl.WaitForMB, tr, uint64(i+1))
		if err != nil {
			return err
		}
		m.register = append(m.register, d.Seconds()*1e3)
	}
	// Preload: the flows' first packets, round robin so mon-a holds state
	// for every flow, as fast as the path takes them with at most 1024 in
	// flight.
	total := m.p.flows * m.p.preload
	for i := 0; i < total; i += chainBurst {
		burst := make([]*packet.Packet, 0, chainBurst)
		for j := i; j < min(i+chainBurst, total); j++ {
			burst = append(burst, m.next(j%m.p.flows, 0))
		}
		if err := m.gate.wait(1024-chainBurst, 10*time.Second); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if err := m.send(burst); err != nil {
			return err
		}
	}
	if err := m.gate.wait(0, 10*time.Second); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	m.sink.lat.take()
	return nil
}

func (m *migrate) send(burst []*packet.Packet) error {
	m.gate.inflight.Add(int64(len(burst)))
	return m.net.SendBurst("gen", "sw", burst)
}

func (m *migrate) next(f int, due int64) *packet.Packet {
	p := m.pool.Clone(m.tmpl[f])
	p.ID = uint16(m.sent[f])
	p.Timestamp = due
	m.sent[f]++
	m.sentAll++
	return p
}

func (m *migrate) measure(d time.Duration, tr *tracer) (phase, error) {
	ph := phase{extra: map[string]float64{}}
	stopSampler := sampleRings(m.rts, tr != nil)
	chunks0 := m.ctrl.Metrics().ChunksMoved
	sent0 := m.sentAll
	start := time.Now()
	startNS := int64(start.Sub(m.epoch))

	// The migrator runs MigrateFlows on the cadence while the generator
	// keeps sending on its own schedule.
	var wg sync.WaitGroup
	var migErr error
	var times []float64
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(m.p.cadence)
		defer tick.Stop()
		for op := uint64(1); ; op++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			took, err := m.migrateOnce(tr, op)
			if err != nil {
				migErr = err
				return
			}
			times = append(times, took.Seconds()*1e3)
		}
	}()

	var late []float64
	burst := make([]*packet.Packet, 0, chainBurst)
	interval := float64(time.Second) / m.p.rate
	for k := 0; ; {
		now := time.Since(start)
		if now >= d {
			break
		}
		due := int(float64(now) / interval)
		if due <= k {
			pause(time.Duration(float64(k+1)*interval) - now)
			continue
		}
		n := min(due-k, chainBurst)
		late = append(late, float64(now-time.Duration(float64(k)*interval))/1e3)
		burst = burst[:0]
		for i := 0; i < n; i++ {
			f := int(m.sched[m.pos])
			m.pos = (m.pos + 1) % len(m.sched)
			burst = append(burst, m.next(f, startNS+int64(float64(k+i)*interval)))
		}
		k += n
		id := tr.begin("netsim.SendBurst", 0, uint64(k))
		if err := m.send(burst); err != nil {
			close(stop)
			wg.Wait()
			return ph, err
		}
		tr.end(id)
	}
	close(stop)
	wg.Wait()
	if migErr != nil {
		return ph, migErr
	}
	if err := m.gate.wait(0, 10*time.Second); err != nil {
		return ph, err
	}
	if !m.ctrl.WaitTxns(30 * time.Second) {
		return ph, fmt.Errorf("migration transactions did not complete")
	}
	if depth := stopSampler(); tr != nil {
		ph.extra["mbox.ring_depth_max"] = float64(depth)
	}
	ph.ops = int(m.sentAll-sent0) + len(times)
	ph.work = float64(m.ctrl.Metrics().ChunksMoved - chunks0)
	for _, t := range times {
		ph.busy += time.Duration(t * 1e6)
	}
	// The operation timed is MigrateFlows: 200 of them in a 20 s run,
	// twenty beyond p90.
	ph.lat = [][]float64{nil}
	for _, t := range times {
		ph.lat[0] = append(ph.lat[0], t*1e3)
	}
	ph.tailQ = 0.9
	// Packet latency is kept per migration cadence, so each window holds
	// one migration: the windows' p99 are the stalls single migrations
	// impose on traffic, and their median is the typical one. 1,000
	// samples a window: ten beyond p99.
	wins := windows(m.sink.lat.take(), time.Duration(startNS), m.p.cadence, int(d/m.p.cadence))
	ph.extra["run.pkt_p50_us"], ph.extra["run.pkt_tail_us"], _, _ = latencySummary(wins, 0.99)
	ph.extra["gen.late_p99_us"] = percentile(late, 0.99)
	return ph, nil
}

// pause blocks the calling goroutine's thread in the kernel for d. The Go
// timer behind time.Sleep wakes about a millisecond late on an idle
// runtime, which would dominate the open loop's latency from due time; a
// nanosleep wakes within tens of microseconds and still spins nothing.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only wakes early
}

// migrateOnce moves the migrating half to the other monitor and re-routes
// it there, then waits out the transaction.
func (m *migrate) migrateOnce(tr *tracer, op uint64) (time.Duration, error) {
	from, to := m.at, 1-m.at
	src, dst := fmt.Sprintf("mon-%c", 'a'+from), fmt.Sprintf("mon-%c", 'a'+to)
	id := tr.begin("apps.MigrateFlows", 0, op)
	start := time.Now()
	err := m.env.MigrateFlows(src, dst, m.half, func() error {
		rid := tr.begin("sdn.Route", id, op)
		defer tr.end(rid)
		route, err := m.routes.Route(m.half, 10, []sdn.Hop{{Switch: "sw", OutPort: dst}})
		if err != nil {
			return err
		}
		old := m.route
		m.route = route
		return m.routes.Unroute(old)
	})
	took := time.Since(start)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	m.at = to
	t0 := time.Now()
	if !m.ctrl.WaitTxns(30 * time.Second) {
		return 0, fmt.Errorf("migration %s→%s did not complete", src, dst)
	}
	m.quiet = append(m.quiet, time.Since(t0).Seconds()*1e3)
	return took, nil
}

func (m *migrate) verify() []string {
	var errs []string
	if !m.net.Quiesce(10 * time.Second) {
		errs = append(errs, "network did not go idle")
	}
	for _, rt := range m.rts {
		rt.Drain(10 * time.Second)
	}
	errs = append(errs, migrateOracle(m.flows.keys, m.sent, m.sink.recv, m.mons[:])...)
	for _, rt := range m.rts {
		if rs := rt.RingStats(); rs.DroppedPackets+rs.DroppedReplays > 0 {
			errs = append(errs, fmt.Sprintf("%s shed %d packets", rt.Name(), rs.DroppedPackets+rs.DroppedReplays))
		}
	}
	if n := m.net.Dropped(); n > 0 {
		errs = append(errs, fmt.Sprintf("netsim dropped %d packets", n))
	}
	return errs
}

// migrateOracle: every flow's per-flow packet counts, summed over both
// monitors, equal what the generator sent, and the sink received each
// packet once.
func migrateOracle(keys []packet.FlowKey, sent, recv []uint64, mons []*monitor.Monitor) []string {
	var errs []string
	for f, k := range keys {
		var counted uint64
		for _, mon := range mons {
			if rec, ok := mon.FlowRecord(k); ok {
				counted += rec.Packets[0] + rec.Packets[1]
			}
		}
		if counted != sent[f] || recv[f] != sent[f] {
			errs = append(errs, fmt.Sprintf("flow %d: monitors counted %d packets, sink received %d, generator sent %d", f, counted, recv[f], sent[f]))
			if len(errs) == 5 {
				break
			}
		}
	}
	return errs
}

func (m *migrate) counters() map[string]float64 {
	c := runtimeCounters(m.rts)
	c["netsim.dropped"] = float64(m.net.Dropped())
	addControllerCounters(c, m.ctrl)
	c["core.register_ms"] = median(m.register)
	c["core.quiet_wait_ms"] = median(m.quiet)
	return c
}

func (m *migrate) inputs() layerInputs {
	return layerInputs{
		pkts:   m.tmpl,
		match:  m.half,
		logics: []logicState{{kind: "monitor", logic: m.mons[0]}, {kind: "monitor", logic: m.mons[1]}},
	}
}

func (m *migrate) ledger(l, e map[string]float64) ledgerSpec {
	chunks := float64(m.p.flows - m.p.flows/2)
	return ledgerSpec{
		op: "migration", unit: "ms",
		rows: []ledgerRow{
			{"state.FlowIndex.Lookup", l["state.index_lookup_ns"] / 1e6, 1},
			{"mbox get per chunk at the source", l["mbox.get_us_per_chunk"] / 1e3, chunks},
			{"sbi frame decode + re-encode per chunk at the controller", l["sbi.frame_roundtrip_us"] / 1e3, chunks},
			{"mbox put per chunk at the destination", l["mbox.put_us_per_chunk"] / 1e3, chunks},
			{"sdn.Route + Unroute", l["sdn.route_us"] / 1e3, 1},
		},
		e2e:      e["op_p50_us"] / 1e3,
		e2eLabel: "MigrateFlows, median",
		notes: []string{
			"remainder: CloneConfig round trips, the core router and put pool, reprocess events of packets that hit the source mid-move, loopback TCP",
			fmt.Sprintf("configured wait, not in any row: quiet period after each migration, median %.2f ms", l["core.quiet_wait_ms"]),
			fmt.Sprintf("data plane during migrations: packet latency p50 %.1f us, p99 %.1f us, generator late p99 %.1f us", l["run.pkt_p50_us"], l["run.pkt_tail_us"], l["gen.late_p99_us"]),
		},
	}
}

func (m *migrate) close() {
	for _, rt := range m.rts {
		rt.Close()
	}
	if m.ctrl != nil {
		m.ctrl.Close()
	}
	if m.net != nil {
		m.net.Stop()
	}
}

// migrateSink counts each flow's delivered packets and their latency from
// the time each was due. Two monitors' links deliver to it concurrently.
type migrateSink struct {
	flows *flowSet
	epoch time.Time
	gate  *gate
	mu    sync.Mutex
	recv  []uint64
	lat   latencies
}

func (s *migrateSink) HandlePacket(p *packet.Packet) {
	s.HandleBurst([]*packet.Packet{p})
}

func (s *migrateSink) HandleBurst(ps []*packet.Packet) {
	now := time.Since(s.epoch)
	s.mu.Lock()
	for _, p := range ps {
		if f, ok := s.flows.flowOf(p); ok {
			s.recv[f]++
		}
		s.lat.add(now, p.Timestamp)
		p.Release()
	}
	s.mu.Unlock()
	s.gate.done(len(ps))
}

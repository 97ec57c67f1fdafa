package main

import (
	"fmt"
	"strings"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/monitor"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// The move workload: back-to-back Controller.MoveInternal calls, each
// moving all per-flow state of a fixed flow set between two instances. A
// round is one IPS move (deep chunks carrying HTTP analyzer state)
// followed by one monitor move (flat chunks); rounds alternate direction.
// Controller and middleboxes talk over loopback TCP and no packets flow.

type moveParams struct {
	flows     int // moved flows per pair, so chunks per move
	resident  int // flows per pair that stay where they are
	minRounds int // rounds an untraced run measures at least
}

type move struct {
	p    moveParams
	ctrl *core.Controller
	rts  []*mbox.Runtime
	ips  [2]*ips.IPS
	mon  [2]*monitor.Monitor

	// flows are the resident flows (under 10.0/16) followed by the moved
	// ones (under movedHalf); both pairs hold all of them.
	flows *flowSet
	// pkts is the preload: each flow's handshake and first request, as
	// the Cloud trace sends them; perFlow counts them per flow.
	pkts    []*packet.Packet
	perFlow []uint64
	match   packet.FieldMatch

	round    int
	register []float64
	quiet    []float64
	errs     errList
}

func newMove(cfg config) workload {
	p := moveParams{flows: 1000, resident: 9000, minRounds: 150}
	if cfg.short {
		p.flows, p.resident, p.minRounds = 100, 100, 2
	}
	m := &move{p: p, flows: cloudFlows(cfg.seed, p.resident, p.flows, 1)}
	m.match, _ = packet.ParseFieldMatch(movedHalf)
	for f := range m.flows.keys {
		first := m.flows.firstRequest(f)
		m.pkts = append(m.pkts, first...)
		m.perFlow = append(m.perFlow, uint64(len(first)))
	}
	return m
}

// moved are the indexes of the moved flows.
func (m *move) moved() []int {
	out := make([]int, 0, m.p.flows)
	for f := m.p.resident; f < len(m.flows.keys); f++ {
		out = append(out, f)
	}
	return out
}

func (m *move) setup(tr *tracer) error {
	var err error
	if m.ctrl, err = newController(); err != nil {
		return err
	}
	for side := 0; side < 2; side++ {
		m.ips[side] = ips.New()
		m.mon[side] = monitor.New()
		name := string(rune('a' + side))
		m.rts = append(m.rts,
			mbox.New("ips-"+name, m.ips[side], mbox.Options{}),
			mbox.New("mon-"+name, m.mon[side], mbox.Options{}))
	}
	for i, rt := range m.rts {
		d, err := register(rt, m.ctrl.Addr(), m.ctrl.WaitForMB, tr, uint64(i+1))
		if err != nil {
			return err
		}
		m.register = append(m.register, d.Seconds()*1e3)
	}
	if err := preload(m.rts[0], m.pkts); err != nil {
		return err
	}
	return preload(m.rts[1], m.pkts)
}

func (m *move) measure(d time.Duration, tr *tracer) (phase, error) {
	ph := phase{extra: map[string]float64{}}
	var lat []float64
	start := time.Now()
	hard := start.Add(3 * d)
	minRounds := m.p.minRounds
	if tr != nil {
		minRounds = 0
	}
	for n := 0; time.Now().Before(start.Add(d)) || (n < minRounds && time.Now().Before(hard)); n++ {
		src, dst := m.round%2, 1-m.round%2
		var took time.Duration
		for i, kind := range []string{"ips", "mon"} {
			from, to := fmt.Sprintf("%s-%c", kind, 'a'+src), fmt.Sprintf("%s-%c", kind, 'a'+dst)
			id := tr.begin("core.MoveInternal", 0, uint64(2*m.round+i+1))
			t0 := time.Now()
			err := m.ctrl.MoveInternal(from, to, m.match)
			t1 := time.Now()
			tr.end(id)
			if err != nil {
				return ph, fmt.Errorf("move %s→%s: %w", from, to, err)
			}
			if !m.ctrl.WaitTxns(30 * time.Second) {
				return ph, fmt.Errorf("move %s→%s: transaction did not complete", from, to)
			}
			m.quiet = append(m.quiet, time.Since(t1).Seconds()*1e3)
			took += t1.Sub(t0)
			ph.ops++
			c0 := cpuTime()
			msg := m.checkMoved(from, to)
			ph.checkCPU += cpuTime() - c0
			if msg != "" {
				ph.bad++
				m.errs.addf("%s", msg)
			}
		}
		if dst == 0 {
			c0 := cpuTime()
			msg := m.checkContent()
			ph.checkCPU += cpuTime() - c0
			if msg != "" {
				ph.bad++
				m.errs.addf("%s", msg)
			}
		}
		m.round++
		ph.work += float64(2 * m.p.flows)
		ph.busy += took
		lat = append(lat, float64(took)/1e3)
	}
	ph.lat, ph.tailQ = [][]float64{lat}, 0.9 // at least 150 rounds: fifteen beyond p90
	return ph, nil
}

// checkMoved is the per-move oracle: the destination holds exactly the
// moved chunk count and the source none.
func (m *move) checkMoved(from, to string) string {
	dst, err1 := m.ctrl.Stats(to, m.match)
	src, err2 := m.ctrl.Stats(from, m.match)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("stats after %s→%s: %v %v", from, to, err1, err2)
	}
	return movedOracle(from, to, src, dst, m.p.flows)
}

func movedOracle(from, to string, src, dst sbi.StatsReply, want int) string {
	if dst.Total() != want || src.Total() != 0 {
		return fmt.Sprintf("after %s→%s: destination holds %d chunks (want %d), source holds %d (want 0)", from, to, dst.Total(), want, src.Total())
	}
	return ""
}

// checkContent runs after each round trip: the moved flows' monitor
// counts still equal the preload's counts, the IPS holds as many
// connections as the preload opened, and every moved HTTP flow kept the
// request its first payload carried, parsed here from the trace's bytes.
func (m *move) checkContent() string {
	for _, f := range m.moved() {
		rec, ok := m.mon[0].FlowRecord(m.flows.keys[f])
		if got := rec.Packets[0] + rec.Packets[1]; !ok || got != m.perFlow[f] {
			return fmt.Sprintf("monitor flow %d: %d packets after the round trip, preload had %d", f, got, m.perFlow[f])
		}
	}
	if n, want := m.ips[0].ConnCount(), len(m.flows.keys); n != want {
		return fmt.Sprintf("IPS holds %d connections after the round trip, preload opened %d", n, want)
	}
	for _, f := range m.moved() {
		c, ok := m.ips[0].Connection(m.flows.keys[f])
		if !ok || !c.Established || (m.flows.http[f] && !holdsRequest(c.HTTP, m.flows.first[f])) {
			return fmt.Sprintf("IPS flow %d lost its connection or HTTP state in the round trip", f)
		}
	}
	return ""
}

// holdsRequest reports whether an analyzer holds what the preload sent:
// one complete request, awaiting its response, with the method, URI and
// Host header of the flow's first payload, and no unparsed bytes.
func holdsRequest(h *ips.HTTPAnalyzer, flow []*packet.Packet) bool {
	lines := strings.Split(string(flow[len(flow)-1].Payload), "\r\n")
	first := strings.Fields(lines[0])
	host := ""
	for _, l := range lines[1:] {
		if v, ok := strings.CutPrefix(l, "Host: "); ok {
			host = v
		}
	}
	return h != nil && len(first) == 3 && h.Requests == 1 && len(h.Pending) == 1 &&
		h.Pending[0].Method == first[0] && h.Pending[0].URI == first[1] && h.Pending[0].Host == host &&
		len(h.ReqBuf) == 0
}

func (m *move) verify() []string {
	return m.errs.get()
}

func (m *move) counters() map[string]float64 {
	c := runtimeCounters(m.rts)
	addControllerCounters(c, m.ctrl)
	c["core.register_ms"] = median(m.register)
	c["core.quiet_wait_ms"] = median(m.quiet)
	return c
}

func (m *move) inputs() layerInputs {
	return layerInputs{
		pkts:  m.pkts,
		match: m.match,
		logics: []logicState{
			{kind: "ips", logic: m.ips[0]}, {kind: "ips", logic: m.ips[1]},
			{kind: "monitor", logic: m.mon[0]}, {kind: "monitor", logic: m.mon[1]},
		},
	}
}

func (m *move) ledger(l, e map[string]float64) ledgerSpec {
	return ledgerSpec{
		op: "chunk", unit: "us",
		rows: []ledgerRow{
			{"state.FlowIndex.Lookup (one per move)", l["state.index_lookup_ns"] / 1e3 / float64(m.p.flows), 1},
			{"packet.SortKeys", l["packet.sortkeys_ns_per_key"] / 1e3, 1},
			{"mbox get at the source (export, seal, frame)", l["mbox.get_us_per_chunk"], 1},
			{"sbi frame decode + re-encode at the controller", l["sbi.frame_roundtrip_us"], 1},
			{"mbox put at the destination (frame, open, install, ack)", l["mbox.put_us_per_chunk"], 1},
		},
		e2e:      e["op_p50_us"] / float64(2*m.p.flows),
		e2eLabel: "move time per chunk (median round over its chunks)",
		notes: []string{
			fmt.Sprintf("of the mbox rows, state.Seal is %.2f us and state.Open %.2f us per chunk", l["state.seal_ns_per_chunk"]/1e3, l["state.open_ns_per_chunk"]/1e3),
			"remainder: core router and put pool, loopback TCP instead of an in-memory pipe, and waiting between the stages; puts start while the get still streams, so the rows overlap in time and the remainder can be negative",
			fmt.Sprintf("configured wait, not in any row: quiet period after each move, median %.2f ms", l["core.quiet_wait_ms"]),
		},
	}
}

func (m *move) close() {
	for _, rt := range m.rts {
		rt.Close()
	}
	if m.ctrl != nil {
		m.ctrl.Close()
	}
}

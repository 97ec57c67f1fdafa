package main

import (
	"fmt"
	"io"
	"net"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/ips"
	"openmb/internal/mbox/monitor"
	"openmb/internal/mbox/nat"
	"openmb/internal/netsim"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/sdn"
	"openmb/internal/state"
)

// The traced run replays each layer's public function on the workload's
// own inputs: its packets, the state its NFs hold at the end of the run,
// and the match its moves use. Each replay is timed reps times and the
// median is reported.
const reps = 5

type logicState struct {
	kind  string
	logic mbox.Logic
}

type layerInputs struct {
	pkts   []*packet.Packet
	logics []logicState
	match  packet.FieldMatch
}

// chunkSet is one NF kind's exported per-flow state: plaintext blobs as
// its GetPerflow builds them, and their keys.
type chunkSet struct {
	kind  string
	class state.Class
	keys  []packet.FlowKey
	plain [][]byte
}

func classOf(kind string) state.Class {
	if kind == monitor.Kind {
		return state.Reporting
	}
	return state.Supporting
}

func freshLogic(kind string) mbox.Logic {
	switch kind {
	case monitor.Kind:
		return monitor.New()
	case ips.Kind:
		return ips.New()
	default:
		return nat.New(natExternal)
	}
}

// exportChunks reads every NF's state matching the inputs' match, grouped
// by kind in a fixed order; a flow held by several instances of one kind
// counts once.
func exportChunks(in layerInputs) []*chunkSet {
	byKind := map[string]*chunkSet{}
	seen := map[string]map[packet.FlowKey]bool{}
	for _, ls := range in.logics {
		cs := byKind[ls.kind]
		if cs == nil {
			cs = &chunkSet{kind: ls.kind, class: classOf(ls.kind)}
			byKind[ls.kind] = cs
			seen[ls.kind] = map[packet.FlowKey]bool{}
		}
		_ = ls.logic.GetPerflow(cs.class, in.match, func(k packet.FlowKey, build func(func()) ([]byte, error)) error {
			if seen[ls.kind][k] {
				return nil
			}
			seen[ls.kind][k] = true
			b, err := build(func() {})
			if err != nil {
				return err
			}
			cs.keys = append(cs.keys, k)
			cs.plain = append(cs.plain, b)
			return nil
		})
	}
	var out []*chunkSet
	for _, cs := range byKind {
		if len(cs.keys) > 0 {
			out = append(out, cs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].kind < out[j].kind })
	return out
}

// timed runs f reps times and returns the median of its time divided by
// the items f reports it handled, in ns per item.
func timed(f func() int) float64 {
	var per []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		n := f()
		per = append(per, float64(time.Since(start))/float64(max(n, 1)))
	}
	return median(per)
}

func replayLayers(in layerInputs) map[string]float64 {
	out := map[string]float64{}
	sets := exportChunks(in)
	var keys []packet.FlowKey
	for _, cs := range sets {
		keys = append(keys, cs.keys...)
	}
	passes := max(1, 50000/max(len(in.pkts), 1))

	pool := packet.NewPool(packet.PoolOptions{})
	out["packet.clone_ns"] = timed(func() int {
		for i := 0; i < passes; i++ {
			for _, p := range in.pkts {
				pool.Clone(p).Release()
			}
		}
		return passes * len(in.pkts)
	})

	buf := make([]packet.FlowKey, len(keys))
	out["packet.sortkeys_ns_per_key"] = timed(func() int {
		copy(buf, keys)
		packet.SortKeys(buf)
		return len(buf)
	})

	ix := state.NewFlowIndex()
	for _, k := range keys {
		ix.Insert(k)
	}
	out["state.index_lookup_ns"] = timed(func() int {
		for i := 0; i < 100; i++ {
			ix.Lookup(in.match)
		}
		return 100
	})

	sealed := make([][]state.Chunk, len(sets))
	var seal, open, allocs, n float64
	for i, cs := range sets {
		s := state.NewSealer("openmb-mbtype-" + cs.kind)
		for j, b := range cs.plain {
			sealed[i] = append(sealed[i], state.Chunk{Key: cs.keys[j], Blob: s.Seal(b)})
		}
		k := float64(len(cs.plain))
		seal += k * timed(func() int {
			for _, b := range cs.plain {
				s.Seal(b)
			}
			return len(cs.plain)
		})
		open += k * timed(func() int {
			for _, c := range sealed[i] {
				if _, err := s.Open(c.Blob); err != nil {
					panic("perfbench: sealed chunk does not open: " + err.Error())
				}
			}
			return len(cs.plain)
		})
		a0 := heapObjects()
		for _, b := range cs.plain {
			s.Seal(b)
		}
		allocs += heapObjects() - a0
		n += k
	}
	if n > 0 {
		out["state.seal_ns_per_chunk"] = seal / n
		out["state.open_ns_per_chunk"] = open / n
		out["state.seal_allocs_per_chunk"] = allocs / n
	}

	var all []state.Chunk
	for _, s := range sealed {
		all = append(all, s...)
	}
	if len(all) > 0 {
		out["sbi.frame_roundtrip_us"], out["sbi.wire_bytes_per_chunk"] = frameReplay(all)
	}
	out["sbi.tcp_rtt_us"] = tcpRTT()
	if len(sets) > 0 {
		out["mbox.get_us_per_chunk"], out["mbox.put_us_per_chunk"] = getPutReplay(sets, sealed, in.match)
	}

	out["mbox.ingress_ns_per_pkt"] = ingressReplay(in.pkts)
	for _, kind := range []string{monitor.Kind, nat.Kind, ips.Kind} {
		out[kind+".ns_per_pkt"] = nfReplay(kind, in.pkts)
	}
	out["netsim.switch_ns_per_pkt"], out["netsim.link_ns_per_pkt"], out["sdn.route_us"] = netReplay(in.pkts, in.match)
	return out
}

func heapObjects() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// countingConn counts the bytes written through it.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.n.Add(int64(len(b)))
	return c.Conn.Write(b)
}

// frameReplay sends each chunk as one MsgChunk frame over an in-memory
// pair in the default (binary) codec and receives it on the other end. It
// returns µs per frame and wire bytes per chunk.
func frameReplay(chunks []state.Chunk) (float64, float64) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cw := &countingConn{Conn: a}
	tx, rx := sbi.NewConn(cw), sbi.NewConn(b)
	if tx.Upgrade(sbi.CodecBinary) != nil || rx.Upgrade(sbi.CodecBinary) != nil {
		return 0, 0
	}
	var bytes float64
	ns := timed(func() int {
		done := make(chan error, 1)
		go func() {
			for range chunks {
				if _, err := rx.Receive(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		w0 := cw.n.Load()
		for i := range chunks {
			if err := tx.Send(&sbi.Message{Type: sbi.MsgChunk, ID: 1, Chunk: &chunks[i]}); err != nil {
				break
			}
		}
		if err := <-done; err != nil {
			panic("perfbench: frame replay: " + err.Error())
		}
		bytes = float64(cw.n.Load()-w0) / float64(len(chunks))
		return len(chunks)
	})
	return ns / 1e3, bytes
}

// tcpRTT times one request/reply round trip between two sbi.Conns over
// loopback TCP, in µs (median of 400 after 50 warm-up trips).
func tcpRTT() float64 {
	l, err := net.Listen("tcp", loopback)
	if err != nil {
		return 0
	}
	defer l.Close()
	go func() {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		c := sbi.NewConn(raw)
		defer c.Close()
		if c.Upgrade(sbi.CodecBinary) != nil {
			return
		}
		for {
			m, err := c.Receive()
			if err != nil {
				return
			}
			if c.Send(&sbi.Message{Type: sbi.MsgDone, ID: m.ID, Op: sbi.OpPong}) != nil {
				return
			}
		}
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0
	}
	c := sbi.NewConn(raw)
	defer c.Close()
	if c.Upgrade(sbi.CodecBinary) != nil {
		return 0
	}
	var rtts []float64
	for i := 0; i < 450; i++ {
		start := time.Now()
		if c.Send(&sbi.Message{Type: sbi.MsgRequest, ID: uint64(i + 1), Op: sbi.OpPing}) != nil {
			return 0
		}
		if _, err := c.Receive(); err != nil {
			return 0
		}
		if i >= 50 {
			rtts = append(rtts, float64(time.Since(start))/1e3)
		}
	}
	return median(rtts)
}

// rawSession is a controller's side of one runtime's southbound session,
// spoken over a raw sbi.Conn with no controller.
type rawSession struct {
	rt      *mbox.Runtime
	conn    *sbi.Conn
	replies chan *sbi.Message
}

func newRawSession(name string, logic mbox.Logic) (*rawSession, error) {
	tr := sbi.NewMemTransport()
	l, err := tr.Listen("ctrl")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	rt := mbox.New(name, logic, mbox.Options{})
	accepted := make(chan *sbi.Conn, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		c := sbi.NewConn(raw)
		hello, err := c.Receive()
		if err != nil || c.Upgrade(hello.Codec) != nil {
			c.Close()
			accepted <- nil
			return
		}
		accepted <- c
	}()
	if err := rt.Connect(tr, "ctrl"); err != nil {
		rt.Close()
		return nil, err
	}
	c := <-accepted
	if c == nil {
		rt.Close()
		return nil, fmt.Errorf("raw session: handshake failed")
	}
	// The buffer lets a burst of replies queue while await is between reads.
	s := &rawSession{rt: rt, conn: c, replies: make(chan *sbi.Message, 256)}
	go func() {
		defer close(s.replies)
		for {
			m, err := c.Receive()
			if err != nil {
				return
			}
			if m.Type != sbi.MsgEvent {
				s.replies <- m
			}
		}
	}()
	return s, nil
}

func (s *rawSession) close() {
	s.conn.Close()
	s.rt.Close()
	for range s.replies {
	}
}

// await reads replies until a done (or error) for id arrives, counting the
// chunk frames before it.
func (s *rawSession) await(id uint64) (int, error) {
	chunks := 0
	for m := range s.replies {
		switch {
		case m.ID != id:
		case m.Type == sbi.MsgChunk:
			chunks += m.ChunkCount()
		case m.Type == sbi.MsgDone:
			return chunks, nil
		case m.Type == sbi.MsgError:
			return chunks, fmt.Errorf("%s", m.Error)
		}
	}
	return chunks, fmt.Errorf("session closed")
}

var putOps = map[state.Class]sbi.Op{state.Supporting: sbi.OpPutSupportPerflow, state.Reporting: sbi.OpPutReportPerflow}
var getOps = map[state.Class]sbi.Op{state.Supporting: sbi.OpGetSupportPerflow, state.Reporting: sbi.OpGetReportPerflow}

// getPutReplay puts every sealed chunk into a fresh runtime of its kind,
// one chunk per frame (the controller's default framing), then gets them
// all back with one request. It returns µs per chunk for the get and the
// put, over all kinds.
func getPutReplay(sets []*chunkSet, sealed [][]state.Chunk, match packet.FieldMatch) (float64, float64) {
	var getT, putT time.Duration
	var n int
	for i, cs := range sets {
		var gets, puts []float64
		for r := 0; r < reps; r++ {
			s, err := newRawSession("replay-"+cs.kind, freshLogic(cs.kind))
			if err != nil {
				return 0, 0
			}
			// Puts are sent from their own goroutine while this one reads
			// the ACKs: the in-memory pipe is synchronous, so a sender that
			// outran the reader would stall the runtime's replies.
			start := time.Now()
			go func(chunks []state.Chunk, op sbi.Op) {
				for j := range chunks {
					if s.conn.Send(&sbi.Message{Type: sbi.MsgRequest, ID: uint64(j + 1), Op: op, Chunk: &chunks[j]}) != nil {
						return // the session is closed; await reports it
					}
				}
			}(sealed[i], putOps[cs.class])
			for j := range sealed[i] {
				if _, err := s.await(uint64(j + 1)); err != nil {
					s.close()
					return 0, 0
				}
			}
			puts = append(puts, float64(time.Since(start)))
			start = time.Now()
			id := uint64(len(sealed[i]) + 1)
			if s.conn.Send(&sbi.Message{Type: sbi.MsgRequest, ID: id, Op: getOps[cs.class], Match: match}) != nil {
				s.close()
				return 0, 0
			}
			got, err := s.await(id)
			gets = append(gets, float64(time.Since(start)))
			s.close()
			if err != nil || got != len(sealed[i]) {
				return 0, 0
			}
		}
		getT += time.Duration(median(gets))
		putT += time.Duration(median(puts))
		n += len(sealed[i])
	}
	return getT.Seconds() * 1e6 / float64(n), putT.Seconds() * 1e6 / float64(n)
}

// ingressReplay times Runtime.HandleBurst plus the worker's dispatch, on a
// runtime whose logic only counts, in ns per packet.
func ingressReplay(pkts []*packet.Packet) float64 {
	logic := &countLogic{cfg: state.NewConfigTree()}
	rt := mbox.New("replay-ingress", logic, mbox.Options{})
	defer rt.Close()
	const n = 8000 // below the 8192-slot ingress ring, so nothing sheds
	heap := make([]*packet.Packet, n)
	for i := range heap {
		heap[i] = pkts[i%len(pkts)].Clone()
	}
	return timed(func() int {
		want := logic.n.Load() + n
		for i := 0; i < n; i += chainBurst {
			rt.HandleBurst(heap[i:min(i+chainBurst, n)])
		}
		waitCond(10*time.Second, func() bool { return logic.n.Load() >= want })
		return n
	})
}

// nfReplay calls kind's ProcessBurst directly on the packets, in bursts of
// 64, after one warm pass that creates the NF's per-flow state.
func nfReplay(kind string, pkts []*packet.Packet) float64 {
	logic := freshLogic(kind).(mbox.BurstLogic)
	base := *mbox.NewBenchContext()
	ctxs := make([]mbox.Context, chainBurst)
	pass := func() int {
		for i := 0; i < len(pkts); i += chainBurst {
			j := min(i+chainBurst, len(pkts))
			for k := range ctxs[:j-i] {
				ctxs[k] = base
			}
			logic.ProcessBurst(ctxs[:j-i], pkts[i:j])
		}
		return len(pkts)
	}
	pass()
	passes := max(1, 20000/max(len(pkts), 1))
	return timed(func() int {
		for i := 0; i < passes; i++ {
			pass()
		}
		return passes * len(pkts)
	})
}

// counter is an endpoint that counts and releases what reaches it.
type counter struct{ n atomic.Int64 }

func (c *counter) HandlePacket(p *packet.Packet) {
	p.Release()
	c.n.Add(1)
}

func (c *counter) HandleBurst(ps []*packet.Packet) {
	for _, p := range ps {
		p.Release()
	}
	c.n.Add(int64(len(ps)))
}

// netReplay times Switch.HandleBurst (classification plus the out link to
// a counting endpoint) and Network.SendBurst (one link), in ns per packet,
// and sdn Route plus Unroute of the workload's match, in µs.
func netReplay(pkts []*packet.Packet, match packet.FieldMatch) (float64, float64, float64) {
	nw := netsim.New()
	defer nw.Stop()
	sw := netsim.NewSwitch(nw, "rsw")
	sink := &counter{}
	nw.Attach("rsw", sw)
	nw.Attach("src", discard{})
	nw.Attach("null", sink)
	if nw.Connect("rsw", "null", 0) != nil || nw.Connect("src", "null", 0) != nil {
		return 0, 0, 0
	}
	sw.Install(netsim.Rule{ID: "all", Priority: 1, Match: packet.MatchAll, OutPorts: []string{"null"}})
	const n = 4000 // below the links' 4096-packet queues
	heap := make([]*packet.Packet, n)
	for i := range heap {
		heap[i] = pkts[i%len(pkts)].Clone()
	}
	burst := make([]*packet.Packet, chainBurst)
	send := func(fn func([]*packet.Packet)) func() int {
		return func() int {
			want := sink.n.Load() + n
			for i := 0; i < n; i += chainBurst {
				k := copy(burst, heap[i:min(i+chainBurst, n)])
				fn(burst[:k])
			}
			waitCond(10*time.Second, func() bool { return sink.n.Load() >= want })
			return n
		}
	}
	switchNS := timed(send(sw.HandleBurst))
	linkNS := timed(send(func(ps []*packet.Packet) { _ = nw.SendBurst("src", "null", ps) }))

	routes := sdn.NewController()
	routes.AddSwitch(sw)
	hop := []sdn.Hop{{Switch: "rsw", OutPort: "null"}}
	routeNS := timed(func() int {
		for i := 0; i < 200; i++ {
			id, err := routes.Route(match, 10, hop)
			if err != nil || routes.Unroute(id) != nil {
				return i
			}
		}
		return 200
	})
	return switchNS, linkNS, routeNS / 1e3
}

// ---------------------------------------------------------------------------
// Ledger.

type ledgerRow struct {
	name  string
	each  float64 // cost of one call, in the ledger's unit
	times float64 // calls per operation
}

// ledgerSpec is one workload's cost breakdown per operation.
type ledgerSpec struct {
	op, unit string
	rows     []ledgerRow
	e2e      float64 // end-to-end cost per operation, untraced
	e2eLabel string
	notes    []string
}

func printLedger(w io.Writer, rep *report) {
	l := rep.ledger
	fmt.Fprintf(w, "ledger: cost per %s, in %s\n", l.op, l.unit)
	var sum float64
	for _, r := range l.rows {
		sum += r.each * r.times
		fmt.Fprintf(w, "  %-62s %12.3f x %-6g = %12.3f\n", r.name, r.each, r.times, r.each*r.times)
	}
	fmt.Fprintf(w, "  %-62s %38.3f\n", "sum of layer rows", sum)
	fmt.Fprintf(w, "  %-62s %38.3f\n", "end to end: "+l.e2eLabel, l.e2e)
	if l.e2e > 0 {
		fmt.Fprintf(w, "  %-62s %38.3f (%.1f%%)\n", "not accounted for by the rows", l.e2e-sum, 100*(l.e2e-sum)/l.e2e)
	}
	fmt.Fprintf(w, "  tracing overhead: traced phase costs %+.1f%% per unit of work against the untraced phase\n", rep.layers["trace.overhead_pct"])
	for _, n := range l.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w, "  "+strings.Repeat("-", 60))
}

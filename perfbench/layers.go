package main

import (
	"fmt"
	"sort"
	"time"

	"dlsbl/internal/bus"
	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/netbus"
	"dlsbl/internal/obs"
	"dlsbl/internal/pipeline"
	"dlsbl/internal/protocol"
	"dlsbl/internal/referee"
	"dlsbl/internal/service"
	"dlsbl/internal/sig"
	"dlsbl/internal/stats"
)

// memoCap is the size at which sig.VerifyMemo resets; a window's full
// verifications are its memo growth plus one memoCap per reset.
const memoCap = 1 << 16

// phases are the protocol's span names, in round order.
var phases = [...]string{obs.PhaseInit, obs.PhaseBidding, obs.PhaseAllocating, obs.PhaseProcessing, obs.PhasePayments}

// opLayer is what a traced op reveals about the layers it crossed.
type opLayer struct {
	queueMS, runMS  float64 // service: FIFO wait and round execution
	phaseMS         [len(phases)]float64
	subrounds       int  // protocol rounds the op played
	fined           int  // members fined
	reused          bool // served from cached bids
	fullBid         bool // ran a full Bidding exchange (neither reused nor spliced)
	audit           int  // referee transcript entries
	speedup         float64
	alloc           []float64 // pipelined: the job's agreed allocation
	sendMS, drainMS float64   // netbus socket calls
}

// spanTracer folds protocol spans into per-phase self time: a span's
// duration minus the part its child spans cover.
type spanTracer struct {
	t0    time.Time
	stack []spanFrame
	self  [len(phases)]float64 // µs
	// rounds counts Initialization spans: one per protocol round.
	rounds int
}

type spanFrame struct {
	phase        int
	start, child float64
}

func newSpanTracer() *spanTracer { return &spanTracer{t0: time.Now()} }

func (s *spanTracer) begin(name string, ts float64) {
	idx := -1
	for i, p := range phases {
		if p == name {
			idx = i
		}
	}
	if idx == 0 {
		s.rounds++
	}
	s.stack = append(s.stack, spanFrame{phase: idx, start: ts})
}

func (s *spanTracer) end(ts float64) {
	if len(s.stack) == 0 {
		return
	}
	f := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	d := ts - f.start
	if f.phase >= 0 {
		s.self[f.phase] += d - f.child
	}
	if n := len(s.stack); n > 0 {
		s.stack[n-1].child += d
	}
}

func (s *spanTracer) phaseMS() (ms [len(phases)]float64) {
	for i, us := range s.self {
		ms[i] = us / 1000
	}
	return ms
}

func (s *spanTracer) now() float64 { return float64(time.Since(s.t0)) / float64(time.Microsecond) }

// BeginPhase implements obs.Tracer.
func (s *spanTracer) BeginPhase(name, round, epoch string) { s.begin(name, s.now()) }

// EndPhase implements obs.Tracer; protocol spans nest strictly.
func (s *spanTracer) EndPhase(name string) { s.end(s.now()) }

// Event implements obs.Tracer; events are counted by the target.
func (s *spanTracer) Event(e obs.Event) {}

// httpLayer reads a traced result: the service's own queue and run times,
// the phase spans of its "trace" artifact and its "transcript" length.
func httpLayer(res *service.JobResult) opLayer {
	st := &spanTracer{}
	for _, r := range res.Trace {
		switch r.Type {
		case "begin":
			st.begin(r.Name, r.TS)
		case "end":
			st.end(r.TS)
		}
	}
	l := opLayer{
		queueMS:   res.QueueMS,
		runMS:     res.RunMS,
		phaseMS:   st.phaseMS(),
		subrounds: st.rounds,
		reused:    res.BidReused,
		fullBid:   !res.BidReused && !res.BidSpliced,
		audit:     len(res.Transcript),
		speedup:   res.BatchSpeedup,
		alloc:     res.Alloc,
	}
	for _, f := range res.Fines {
		if f > 0 {
			l.fined++
		}
	}
	return l
}

// netLayer reads a traced netbus round: the benchmark's own tracer and
// the socket timers of the medium decorator.
func netLayer(out *protocol.Outcome, st *spanTracer, m *timedMedium) opLayer {
	l := opLayer{
		phaseMS:   st.phaseMS(),
		subrounds: st.rounds,
		reused:    out.BidReused,
		fullBid:   !out.BidReused && !out.BidSpliced,
		audit:     len(out.Transcript),
		sendMS:    float64(m.send) / float64(time.Millisecond),
		drainMS:   float64(m.drain) / float64(time.Millisecond),
	}
	for _, f := range out.Fines {
		if f > 0 {
			l.fined++
		}
	}
	return l
}

// layerMetrics computes every per-layer metric from the traced window,
// with obs.trace_overhead against the untraced one. A layer the
// workload's path does not cross reports 0.
func layerMetrics(in instance, wl workload, plain, traced window) map[string]metric {
	var oks []op
	for _, o := range traced.ops {
		if o.err == nil {
			oks = append(oks, o)
		}
	}
	n := float64(len(oks))
	d := func(f func(c counters) int64) float64 { return float64(f(traced.after) - f(traced.before)) }
	perOp := func(f func(c counters) int64) float64 { return d(f) / n }
	median := func(f func(o op) float64) float64 {
		xs := make([]float64, len(oks))
		for i, o := range oks {
			xs[i] = f(o)
		}
		return stats.Quantile(xs, 0.5)
	}
	mean := func(f func(o op) float64) float64 {
		sum := 0.0
		for _, o := range oks {
			sum += f(o)
		}
		return sum / n
	}
	isHTTP := !wl.netbus

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// service
	if isHTTP {
		set("service.queue_wait_p50_ms", median(func(o op) float64 { return o.lay.queueMS }), "ms")
		set("service.run_p50_ms", median(func(o op) float64 { return o.lay.runMS }), "ms")
		set("service.http_p50_ms", median(func(o op) float64 {
			return float64(o.end.Sub(o.start))/float64(time.Millisecond) - o.lay.queueMS - o.lay.runMS
		}), "ms")
	} else {
		set("service.queue_wait_p50_ms", 0, "ms")
		set("service.run_p50_ms", 0, "ms")
		set("service.http_p50_ms", 0, "ms")
	}
	set("service.rejected_per_op", perOp(func(c counters) int64 { return c.rejected }), "count")

	// protocol phases (self time summed per op) and sub-rounds
	for i, p := range phases {
		set("protocol."+p+"_ms", mean(func(o op) float64 { return o.lay.phaseMS[i] }), "ms")
	}
	set("protocol.subrounds_per_op", mean(func(o op) float64 { return float64(o.lay.subrounds) }), "count")

	// protocol transport and economics
	set("protocol.retransmits_per_op", perOp(func(c counters) int64 { return c.retransmits }), "count")
	set("protocol.dedup_hits_per_op", perOp(func(c counters) int64 { return c.dedups }), "count")
	set("protocol.timeouts_per_op", perOp(func(c counters) int64 { return c.timeouts }), "count")
	set("protocol.convictions_per_op", perOp(func(c counters) int64 { return c.convictions }), "count")
	set("protocol.fined_per_op", mean(func(o op) float64 { return float64(o.lay.fined) }), "count")
	set("protocol.rebids_per_op", mean(func(o op) float64 { return b2f(o.lay.fullBid) }), "count")
	set("protocol.bid_reuse_ratio", mean(func(o op) float64 { return b2f(o.lay.reused) }), "ratio")

	// sig: memo traffic over the window. Where the benchmark does not own
	// the memo, full verifications are the memo's growth.
	hits := d(func(c counters) int64 { return c.memoHits })
	misses := d(func(c counters) int64 { return c.memoMisses })
	if traced.before.memoMisses < 0 {
		misses = d(func(c counters) int64 { return c.memoSize }) + float64(traced.resets*memoCap)
	}
	set("sig.memo_hits_per_op", hits/n, "count")
	set("sig.memo_misses_per_op", misses/n, "count")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	set("sig.memo_hit_ratio", ratio, "ratio")
	set("sig.memo_resets", float64(traced.resets), "count")

	// referee, bus, netbus, pipeline
	set("referee.audit_entries_per_op", mean(func(o op) float64 { return float64(o.lay.audit) }), "count")
	set("bus.msgs_per_op", perOp(func(c counters) int64 { return c.msgs }), "count")
	set("bus.deliveries_per_op", perOp(func(c counters) int64 { return c.deliveries }), "count")
	set("bus.units_per_op", perOp(func(c counters) int64 { return c.units }), "count")
	set("bus.drops_per_op", perOp(func(c counters) int64 { return c.drops }), "count")
	set("bus.duplicates_per_op", perOp(func(c counters) int64 { return c.duplicates }), "count")
	set("bus.reorders_per_op", perOp(func(c counters) int64 { return c.reorders }), "count")
	set("netbus.datagrams_out_per_op", perOp(func(c counters) int64 { return c.datagramsOut }), "count")
	set("netbus.datagrams_in_per_op", perOp(func(c counters) int64 { return c.datagramsIn }), "count")
	set("netbus.resends_per_op", perOp(func(c counters) int64 { return c.resends }), "count")
	set("netbus.decode_failures", d(func(c counters) int64 { return c.decodeFailures }), "count")
	set("netbus.send_ms", mean(func(o op) float64 { return o.lay.sendMS }), "ms")
	set("netbus.drain_ms", mean(func(o op) float64 { return o.lay.drainMS }), "ms")
	set("pipeline.packed_jobs_per_op", perOp(func(c counters) int64 { return c.packedJobs }), "count")
	packed := 0.0
	speedups := 0.0
	for _, o := range oks {
		if o.lay.speedup > 0 {
			packed++
			speedups += o.lay.speedup
		}
	}
	if packed > 0 {
		speedups /= packed
	}
	set("pipeline.batch_speedup_mean", speedups, "ratio")

	// obs
	set("obs.trace_overhead", (n/traced.dur.Seconds())/(float64(plain.ok)/plain.dur.Seconds()), "ratio")
	set("obs.sentinel_violations", float64(traced.after.sentinel), "count")

	for name, v := range unitCosts(in, wl, oks) {
		m[name] = v
	}
	return m
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// unitCosts times the public primitives a round is made of, on the
// workload's own inputs, per call. Wall time is read as a ratio to these
// units measured in the same run: absolute times do not carry between
// machines.
func unitCosts(in instance, wl workload, oks []op) map[string]metric {
	z := in.z
	if wl.netbus {
		z = in.job(1).z
	}
	m := map[string]metric{}
	us := func(name string, ns float64) { m[name] = metric{ns / 1000, "us"} }
	ns := func(name string, ns float64) { m[name] = metric{ns, "ns"} }

	mech := core.Mechanism{Network: dlt.NCPFE, Z: z}
	ref, err := mech.Run(in.w, in.w)
	if err != nil {
		panic(fmt.Sprintf("reference payments: %v", err)) // the inputs are generated valid
	}
	key, err := sig.GenerateKeyPair("P1", sig.DeterministicSource(in.seed))
	if err != nil {
		panic(err)
	}
	reg := sig.NewRegistry()
	if err := reg.Register(key.ID, key.Public); err != nil {
		panic(err)
	}
	round := fmt.Sprintf("bench%d:r1", in.seed)
	payment := referee.PaymentPayload{Proc: key.ID, Q: ref.Payment, Round: round}
	payload := payment.AppendBinary(nil)
	var env sig.Envelope
	us("sig.seal_us", perCall(func() { _ = sig.SealInto(key, referee.KindPayment, payload, &env) }))
	us("sig.verify_us", perCall(func() { _ = env.Verify(reg) }))

	// The bid vector a referee receives at m = 16: every member's signed
	// bid (the same key signs them all; only the byte layout matters).
	vector := referee.BidVectorPayload{Proc: key.ID, Round: round}
	for i, w := range in.w {
		b := referee.BidPayload{Proc: fmt.Sprintf("P%d", i+1), Bid: w, Round: round}
		e, err := sig.SealCodec(key, referee.KindBid, b, sig.CodecBinary)
		if err != nil {
			panic(err)
		}
		vector.Bids = append(vector.Bids, e)
	}
	var buf []byte
	us("referee.payload_encode_us", perCall(func() {
		buf = payment.AppendBinary(buf[:0])
		buf = vector.AppendBinary(buf[:0])
	}))
	vecBytes := vector.AppendBinary(nil)
	var payDec referee.PaymentPayload
	var vecDec referee.BidVectorPayload
	us("referee.payload_decode_us", perCall(func() {
		_ = payDec.DecodeBinary(payload)
		_ = vecDec.DecodeBinary(vecBytes)
	}))
	var log *referee.AuditLog
	appends := 0
	detail := fmt.Sprintf("settled payments %v", ref.Payment)
	us("referee.audit_append_us", perCall(func() {
		if appends%1024 == 0 {
			log = &referee.AuditLog{}
		}
		appends++
		log.AppendRound(round, "payments", obs.PhasePayments, nil, detail)
	}))

	engine := mech.NewEngine()
	var out core.Outcome
	us("core.payment_engine_us", perCall(func() { _ = engine.RunInto(in.w, in.w, core.WithVerification, &out) }))
	inst := dlt.Instance{Network: dlt.NCPFE, Z: z, W: in.w}
	us("dlt.solve_us", perCall(func() { _, _ = dlt.Optimal(inst) }))

	ns("netbus.frame_encode_ns", 0)
	ns("netbus.frame_decode_ns", 0)
	if wl.netbus {
		msg := bus.Message{From: key.ID, To: referee.Account, Kind: referee.KindPayment, Size: members, Nonce: 1, Env: env}
		var frame []byte
		ns("netbus.frame_encode_ns", perCall(func() { frame = netbus.AppendMsgFrame(frame[:0], 1, "w1", referee.Account, msg) }))
		ns("netbus.frame_decode_ns", perCall(func() { _, _ = netbus.DecodeFrame(frame) }))
	}

	us("pipeline.pack_us", 0)
	if wl.pipeline {
		var batches [][]pipeline.Job
		for i := 0; i+pipelineDepth <= len(oks) && len(batches) < 32; i += pipelineDepth {
			var jobs []pipeline.Job
			for _, o := range oks[i : i+pipelineDepth] {
				jobs = append(jobs, pipeline.Job{Exec: in.w, Alloc: o.lay.alloc, Rounds: installments, Policy: dlt.GeometricRounds})
			}
			batches = append(batches, jobs)
		}
		if len(batches) > 0 {
			next := 0
			us("pipeline.pack_us", perCall(func() {
				_, _ = pipeline.Pack(dlt.NCPFE, in.z, batches[next%len(batches)])
				next++
			}))
		}
	}
	return m
}

// perCall times fn and returns its median per-call wall time in
// nanoseconds over five slices of about 10 ms each.
func perCall(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= time.Millisecond {
			n = int(float64(n) * float64(10*time.Millisecond) / float64(d))
			break
		}
		n *= 4
	}
	n = max(n, 1)
	per := make([]float64, 5)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

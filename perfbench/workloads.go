package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/netbus"
	"dlsbl/internal/obs"
	"dlsbl/internal/protocol"
	"dlsbl/internal/referee"
	"dlsbl/internal/service"
	"dlsbl/internal/sig"
)

const (
	// members is the pool size m of every workload.
	members = 16
	// installments and pipelineDepth shape the pipelined workload: each
	// job is served in 4 geometric installments and each submission is a
	// batch the pool packs whole.
	installments  = 4
	pipelineDepth = 4
	// faultRate is the per-delivery drop, duplicate and reorder
	// probability of the plain-faulty workload's fault plans.
	faultRate = 0.05
	// clients bounds the closed loop to the container's two CPUs.
	clients = 2
	// paymentTol is the engine-vs-naive agreement the core parity tests
	// require (core's outcomeTol), scaled the same way.
	paymentTol = 1e-10
)

// instance is a workload's seeded inputs: the pool's private processing
// rates and the bus rate fixed-z (multiload) pools are founded with.
type instance struct {
	seed int64
	w    []float64
	z    float64
}

func newInstance(seed int64) instance {
	in := instance{seed: seed, w: make([]float64, members)}
	for i := range in.w {
		in.w[i] = 1 + 3*unit(seed, -1, uint64(i))
	}
	in.z = 0.05 + 0.25*unit(seed, -2, 0)
	return in
}

// jobParams are job k's inputs. They derive from (seed, k) alone, so the
// job stream is the same whichever caller draws job k.
type jobParams struct {
	seed      int64
	z         float64 // per-job bus rate (plain-faulty, netbus)
	faultSeed int64
	deviant   int // pipelined: the member playing payment-cheat-2x, or -1
}

func (in instance) job(k int64) jobParams {
	p := jobParams{
		seed:      int64(draw(in.seed, k, 0) >> 1),
		z:         0.05 + 0.45*unit(in.seed, k, 1),
		faultSeed: int64(draw(in.seed, k, 2) >> 1),
		deviant:   -1,
	}
	if unit(in.seed, k, 3) < 1.0/8 {
		// Never the NCP-FE load originator (P1): a fined member is any of
		// the others.
		p.deviant = 1 + int(draw(in.seed, k, 4)%(members-1))
	}
	return p
}

// draw is a splitmix64 hash of (seed, k, field): cheap, stateless draws
// that make job k's inputs independent of every other job's.
func draw(seed, k int64, field uint64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(k)*0xc2b2ae3d27d4eb4f ^ (field+1)*0x165667b19e3779f9
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// unit is draw mapped onto [0, 1).
func unit(seed, k int64, field uint64) float64 {
	return float64(draw(seed, k, field)>>11) / (1 << 53)
}

// counters are a system's cumulative operation counts; the benchmark
// reports deltas over a window.
type counters struct {
	msgs, deliveries, units       int64
	drops, duplicates, reorders   int64
	retransmits, dedups, timeouts int64
	convictions                   int64
	memoHits, memoMisses          int64 // memoMisses < 0: not observable
	memoSize                      int64
	packedJobs                    int64
	rejected                      int64
	datagramsOut, datagramsIn     int64
	resends, decodeFailures       int64
	sentinel                      int64
	// subrounds and fullBids are counted by the load generator from what
	// each op returned: protocol rounds played, and rounds that ran a full
	// Bidding exchange instead of reusing cached bids.
	subrounds, fullBids int64
}

// target is one booted system under test.
type target interface {
	// clients is the number of concurrent closed-loop callers.
	clients() int
	// batch is the number of ops one submission carries.
	batch() int
	// submit runs one submission whose first op is job k of the seeded
	// stream and returns its ops once every result is in.
	submit(k int64, traced bool) []op
	// snapshot reads the system's cumulative counters.
	snapshot() counters
	// finish runs the end-of-run health check and tears the system down.
	finish() error
}

// workload is a named way to boot a target. boot returns once the first
// op has been served, so timing it is the workload's set-up time.
type workload struct {
	boot func(in instance) (target, error)
	// netbus and pipeline mark the workloads whose path crosses those
	// layers; the others report 0 for the layers' metrics.
	netbus, pipeline bool
}

var workloads = map[string]workload{
	"reuse":        {boot: func(in instance) (target, error) { return bootHTTP(reuseSpec, in) }},
	"pipelined":    {boot: func(in instance) (target, error) { return bootHTTP(pipelinedSpec, in) }, pipeline: true},
	"plain-faulty": {boot: func(in instance) (target, error) { return bootHTTP(plainFaultySpec, in) }},
	"netbus":       {boot: bootNet, netbus: true},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// references memoizes the reference outcome per bus rate z.
type references struct {
	mu    sync.Mutex
	byZ   map[float64]*core.Outcome
	solve func(z float64) (*core.Outcome, error)
}

func newReferences(solve func(z float64) (*core.Outcome, error)) *references {
	return &references{byZ: make(map[float64]*core.Outcome), solve: solve}
}

func (r *references) get(z float64) (*core.Outcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ref, ok := r.byZ[z]; ok {
		return ref, nil
	}
	ref, err := r.solve(z)
	if err != nil {
		return nil, fmt.Errorf("reference at z=%v: %w", z, err)
	}
	r.byZ[z] = ref
	return ref, nil
}

// naiveReference is the whole-load reference: core's per-agent re-solve,
// the implementation the payment engine's parity tests compare against,
// at truthful bids and full-speed execution.
func naiveReference(w []float64) func(z float64) (*core.Outcome, error) {
	return func(z float64) (*core.Outcome, error) {
		return core.Mechanism{Network: dlt.NCPFE, Z: z}.RunNaive(w, w)
	}
}

// pipelinedReference is the reference for a load served in installments:
// the Definition 3.1 payments in the R-installment schedule class, which
// the installment payments must telescope to.
func pipelinedReference(w []float64) func(z float64) (*core.Outcome, error) {
	return func(z float64) (*core.Outcome, error) {
		return core.Mechanism{Network: dlt.NCPFE, Z: z}.RunRounds(w, w, installments, dlt.GeometricRounds, core.WithVerification)
	}
}

// checkPayments compares a payment vector with the reference under the
// core parity tests' tolerance: 1e-10 relative to the largest of 1, the
// reference value and the round's makespan and compensation magnitudes.
func checkPayments(got []float64, ref *core.Outcome) error {
	if len(got) != len(ref.Payment) {
		return fmt.Errorf("%d payments, want %d", len(got), len(ref.Payment))
	}
	floor := 0.0
	for i := range ref.Payment {
		floor = math.Max(floor, math.Max(math.Abs(ref.MakespanWithout[i]), math.Abs(ref.Compensation[i])))
	}
	for i, want := range ref.Payment {
		scale := math.Max(floor, math.Max(1, math.Abs(want)))
		if math.IsNaN(got[i]) || math.Abs(got[i]-want) > paymentTol*scale {
			return fmt.Errorf("payment P%d = %v, reference %v", i+1, got[i], want)
		}
	}
	return nil
}

// httpSpec is one HTTP workload: its pool, its submissions and its
// per-result oracle — payments against ref, then check when set.
type httpSpec struct {
	pool  service.PoolSpec
	batch int
	job   func(in instance, p jobParams) service.JobSpec
	ref   func(w []float64) func(z float64) (*core.Outcome, error)
	check func(p jobParams, res *service.JobResult) error
}

// reuse: honest whole-load jobs against one warm multiload pool at a
// fixed z, so every round after the first reuses the cached bids.
var reuseSpec = httpSpec{
	pool:  service.PoolSpec{Name: "reuse", Multiload: true},
	batch: 1,
	job: func(in instance, p jobParams) service.JobSpec {
		return service.JobSpec{Z: in.z, Seed: p.seed}
	},
	ref: naiveReference,
}

// pipelined: 4-job batches of 4-installment geometric loads against a
// depth-4 pipelined pool; one job in eight has a payment cheat.
var pipelinedSpec = httpSpec{
	pool:  service.PoolSpec{Name: "pipelined", Multiload: true, PipelineDepth: pipelineDepth},
	batch: pipelineDepth,
	job: func(in instance, p jobParams) service.JobSpec {
		spec := service.JobSpec{Z: in.z, Seed: p.seed, Installments: installments, InstallmentPolicy: "geometric"}
		if p.deviant >= 0 {
			spec.Behaviors = make([]string, p.deviant+1)
			spec.Behaviors[p.deviant] = agent.PaymentCheat.Name
		}
		return spec
	},
	ref: pipelinedReference,
	check: func(p jobParams, res *service.JobResult) error {
		if res.Installments != installments {
			return fmt.Errorf("served in %d installments, want %d", res.Installments, installments)
		}
		if len(res.Fines) != members {
			return fmt.Errorf("%d fines, want %d", len(res.Fines), members)
		}
		// Lemma 5.2: the deviant alone is fined.
		for i, f := range res.Fines {
			if fined := f > 0; fined != (i == p.deviant) {
				return fmt.Errorf("P%d fined %v (deviant P%d)", i+1, f, p.deviant+1)
			}
		}
		return nil
	},
}

// plain-faulty: honest single jobs at a per-job z against a plain pool,
// every round over a seeded lossy bus; payments must equal the fault-free
// reference.
var plainFaultySpec = httpSpec{
	pool:  service.PoolSpec{Name: "plain-faulty"},
	batch: 1,
	job: func(in instance, p jobParams) service.JobSpec {
		return service.JobSpec{Z: p.z, Seed: p.seed, Faults: &bus.FaultPlan{
			Seed: p.faultSeed, Drop: faultRate, Duplicate: faultRate, Reorder: faultRate,
		}}
	},
	ref: naiveReference,
}

// httpTarget is the service behind a loopback listener, driven over HTTP.
type httpTarget struct {
	spec     httpSpec
	in       instance
	refs     *references
	srv      *service.Server
	pool     *service.Pool
	hs       *http.Server
	served   chan error
	client   *http.Client
	base     string
	rejected atomic.Int64
	subs     atomic.Int64
	fullBids atomic.Int64
}

func bootHTTP(spec httpSpec, in instance) (target, error) {
	spec.pool.TrueW = in.w
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{})
	t := &httpTarget{
		spec:   spec,
		in:     in,
		refs:   newReferences(spec.ref(in.w)),
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() { t.served <- t.hs.Serve(ln) }()
	if err := t.createPool(); err != nil {
		t.finish()
		return nil, err
	}
	for _, o := range t.submit(0, false) {
		if o.err != nil {
			t.finish()
			return nil, fmt.Errorf("first op: %w", o.err)
		}
	}
	return t, nil
}

func (t *httpTarget) createPool() error {
	body, err := json.Marshal(t.spec.pool)
	if err != nil {
		return err
	}
	resp, err := t.client.Post(t.base+"/v1/pools", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("creating pool: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("creating pool: HTTP %d", resp.StatusCode)
	}
	p, ok := t.srv.Pool(t.spec.pool.Name)
	if !ok {
		return errors.New("created pool not registered")
	}
	t.pool = p
	return nil
}

func (t *httpTarget) clients() int { return clients }
func (t *httpTarget) batch() int   { return t.spec.batch }

func (t *httpTarget) submit(k int64, traced bool) []op {
	start := time.Now()
	params := make([]jobParams, t.spec.batch)
	sub := service.Submission{Pool: t.spec.pool.Name, Jobs: make([]service.JobSpec, t.spec.batch)}
	for i := range sub.Jobs {
		params[i] = t.in.job(k + int64(i))
		sub.Jobs[i] = t.spec.job(t.in, params[i])
	}
	if traced {
		sub.Artifacts = []string{service.ArtifactTrace, service.ArtifactTranscript}
	}
	ops := make([]op, 0, t.spec.batch)
	// fail marks every op without a result as failed.
	fail := func(err error) []op {
		for len(ops) < t.spec.batch {
			ops = append(ops, op{start: start, end: time.Now(), err: err})
		}
		return ops
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return fail(err)
	}
	resp, err := t.client.Post(t.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			t.rejected.Add(int64(t.spec.batch))
		}
		return fail(fmt.Errorf("submission: HTTP %d", resp.StatusCode))
	}
	// The stream is an "accepted" line, one "result" line per job in
	// submission order, and a closing "done" line.
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var res service.JobResult
			if jerr := json.Unmarshal(line, &res); jerr != nil {
				return fail(fmt.Errorf("decoding result: %w", jerr))
			}
			if res.Event == "result" && len(ops) < t.spec.batch {
				i := len(ops)
				o := op{start: start, end: time.Now()}
				o.err = t.check(params[i], sub.Jobs[i].Z, &res)
				if traced {
					o.lay = httpLayer(&res)
				}
				ops = append(ops, o)
			}
		}
		if err != nil {
			break
		}
	}
	return fail(errors.New("result stream ended early"))
}

// check is the per-result oracle every HTTP workload shares, followed by
// the workload's own.
func (t *httpTarget) check(p jobParams, z float64, res *service.JobResult) error {
	subs := int64(max(1, res.Installments))
	t.subs.Add(subs)
	if !res.BidReused && !res.BidSpliced {
		t.fullBids.Add(1)
	}
	if res.Error != "" {
		return fmt.Errorf("job %d: %s", res.Job, res.Error)
	}
	if !res.Completed {
		return fmt.Errorf("job %d terminated in %s", res.Job, res.TerminatedIn)
	}
	ref, err := t.refs.get(z)
	if err != nil {
		return err
	}
	if err := checkPayments(res.Payments, ref); err != nil {
		return fmt.Errorf("job %d: %w", res.Job, err)
	}
	if t.spec.check != nil {
		if err := t.spec.check(p, res); err != nil {
			return fmt.Errorf("job %d: %w", res.Job, err)
		}
	}
	return nil
}

func (t *httpTarget) snapshot() counters {
	ps := t.pool.Snapshot()
	ev := ps.BusEvents
	return counters{
		msgs:        int64(ps.Traffic.Messages),
		deliveries:  int64(ps.Traffic.Deliveries),
		units:       int64(ps.Traffic.Units),
		drops:       ev[obs.EvDrop],
		duplicates:  ev[obs.EvDuplicate],
		reorders:    ev[obs.EvReorder],
		retransmits: ev[obs.EvRetransmit],
		dedups:      ev[obs.EvDedupHit],
		timeouts:    ev[obs.EvTimeout],
		convictions: ev[obs.EvConviction],
		memoHits:    ps.VerifyMemoHits,
		memoMisses:  -1,
		memoSize:    int64(ps.VerifyMemoSize),
		packedJobs:  int64(ps.PackedJobs),
		rejected:    t.rejected.Load(),
		sentinel:    int64(len(ps.SentinelViolations)),
		subrounds:   t.subs.Load(),
		fullBids:    t.fullBids.Load(),
	}
}

// finish requires /healthz to answer 200 (every economic-invariant
// sentinel clear), then shuts the listener and the service down.
func (t *httpTarget) finish() error {
	var health error
	resp, err := t.client.Get(t.base + "/healthz")
	if err != nil {
		health = fmt.Errorf("healthz: %w", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			health = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	t.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := t.hs.Shutdown(ctx); err != nil && health == nil {
		health = fmt.Errorf("shutting the listener down: %w", err)
	}
	if err := <-t.served; !errors.Is(err, http.ErrServerClosed) && health == nil {
		health = fmt.Errorf("serving: %w", err)
	}
	t.srv.Close()
	return health
}

// netTarget is a netbus loopback cluster: two worker nodes host P1..P16
// and the driver medium hosts the referee and the user, as in the
// three-process net-smoke deployment, all inside this process.
type netTarget struct {
	in     instance
	refs   *references
	nodes  []*netbus.Node
	served sync.WaitGroup
	medium *netbus.Medium
	timed  *timedMedium
	keys   *sig.Keyring
	memo   *sig.VerifyMemo
	// sentinel watches traced rounds' event streams.
	sentinel *obs.Sentinel

	mu sync.Mutex
	c  counters // the protocol-level counts taken from each Outcome
}

func bootNet(in instance) (target, error) {
	cfg := &netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"driver": {Addr: "127.0.0.1:0", Endpoints: []string{referee.Account, protocol.UserID}},
	}}
	half := members / 2
	for n, name := range []string{"w1", "w2"} {
		var eps []string
		for i := n * half; i < (n+1)*half; i++ {
			eps = append(eps, fmt.Sprintf("P%d", i+1))
		}
		cfg.Nodes[name] = netbus.NodeSpec{Addr: "127.0.0.1:0", Endpoints: eps}
	}
	t := &netTarget{
		in:       in,
		refs:     newReferences(naiveReference(in.w)),
		keys:     sig.NewKeyring(),
		memo:     sig.NewVerifyMemo(),
		sentinel: obs.NewSentinel(),
	}
	for _, name := range []string{"w1", "w2"} {
		node, err := netbus.ListenNode(cfg, name)
		if err != nil {
			t.finish()
			return nil, err
		}
		spec := cfg.Nodes[name]
		spec.Addr = node.LocalAddr().String()
		cfg.Nodes[name] = spec
		t.nodes = append(t.nodes, node)
		t.served.Add(1)
		go func() {
			defer t.served.Done()
			_ = node.Serve() // returns nil after Close; a receive error ends the node and shows as failed rounds
		}()
	}
	medium, err := netbus.Dial(cfg, "driver", netbus.Options{})
	if err != nil {
		t.finish()
		return nil, err
	}
	t.medium = medium
	t.timed = &timedMedium{Medium: medium}
	if o := t.submit(0, false); o[0].err != nil {
		t.finish()
		return nil, fmt.Errorf("first round: %w", o[0].err)
	}
	return t, nil
}

func (t *netTarget) clients() int { return 1 }
func (t *netTarget) batch() int   { return 1 }

// submit plays one back-to-back protocol round over the cluster: binary
// codec, warm keyring and the cluster-lifetime verify memo.
func (t *netTarget) submit(k int64, traced bool) []op {
	p := t.in.job(k)
	cfg := protocol.Config{
		Network: dlt.NCPFE,
		Z:       p.z,
		TrueW:   t.in.w,
		Seed:    p.seed,
		Keys:    t.keys,
		Codec:   sig.CodecBinary,
		Memo:    t.memo,
		Medium:  t.medium,
	}
	var tr *spanTracer
	if traced {
		tr = newSpanTracer()
		cfg.Tracer = obs.Multi(tr, t.sentinel)
		t.timed.send, t.timed.drain = 0, 0
		cfg.Medium = t.timed
	}
	o := op{start: time.Now()}
	out, err := protocol.Run(cfg)
	o.end = time.Now()
	if err != nil {
		o.err = err
		return []op{o}
	}
	t.count(out)
	o.err = t.check(p, out)
	if traced {
		o.lay = netLayer(out, tr, t.timed)
	}
	return []op{o}
}

func (t *netTarget) count(out *protocol.Outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.c.retransmits += int64(out.Fault.Retransmits)
	t.c.dedups += int64(out.Fault.DupDiscards)
	t.c.timeouts += int64(out.Fault.Timeouts)
	for _, f := range out.Fines {
		if f > 0 {
			t.c.convictions++
		}
	}
	t.c.subrounds++
	if !out.BidReused && !out.BidSpliced {
		t.c.fullBids++
	}
}

func (t *netTarget) check(p jobParams, out *protocol.Outcome) error {
	if !out.Completed {
		return fmt.Errorf("round terminated in %s", out.TerminatedIn)
	}
	ref, err := t.refs.get(p.z)
	if err != nil {
		return err
	}
	return checkPayments(out.Payments, ref)
}

func (t *netTarget) snapshot() counters {
	t.mu.Lock()
	c := t.c
	t.mu.Unlock()
	bs := t.medium.Stats()
	ns := t.medium.NetStats()
	ms := t.memo.Stats()
	c.msgs, c.deliveries, c.units = int64(bs.Messages), int64(bs.Deliveries), int64(bs.Units)
	c.drops, c.duplicates, c.reorders = int64(bs.Dropped), int64(bs.Duplicated), int64(bs.Reordered)
	c.memoHits, c.memoMisses, c.memoSize = ms.Hits, ms.Misses, int64(ms.Size)
	c.datagramsOut, c.datagramsIn = int64(ns.DatagramsOut), int64(ns.DatagramsIn)
	c.resends, c.decodeFailures = int64(ns.Resends), int64(ns.DecodeFailures)
	c.sentinel = int64(len(t.sentinel.Violations()))
	return c
}

// finish requires the traced rounds' sentinel to be clear, then closes
// the driver and the nodes and waits for the nodes' receive loops.
func (t *netTarget) finish() error {
	var health error
	if v := t.sentinel.Violations(); len(v) > 0 {
		health = fmt.Errorf("sentinel: %v", v)
	}
	if t.medium != nil {
		t.medium.Close()
	}
	for _, n := range t.nodes {
		n.Close()
	}
	t.served.Wait()
	return health
}

// timedMedium decorates the driver's netbus medium with wall-clock
// timers around the calls that cross sockets. Embedding the concrete
// medium forwards every other method, SetRoundContext included: protocol
// finds that one by type assertion, so traced rounds still stamp their
// trace context into frames.
type timedMedium struct {
	*netbus.Medium
	send, drain time.Duration
}

func (m *timedMedium) BroadcastTagged(from, kind string, env sig.Envelope, size int, nonce uint64) (uint64, error) {
	t0 := time.Now()
	defer func() { m.send += time.Since(t0) }()
	return m.Medium.BroadcastTagged(from, kind, env, size, nonce)
}

func (m *timedMedium) SendTagged(from, to, kind string, env sig.Envelope, size int, nonce uint64) (uint64, error) {
	t0 := time.Now()
	defer func() { m.send += time.Since(t0) }()
	return m.Medium.SendTagged(from, to, kind, env, size, nonce)
}

func (m *timedMedium) Drain(id string) ([]bus.Message, error) {
	t0 := time.Now()
	defer func() { m.drain += time.Since(t0) }()
	return m.Medium.Drain(id)
}

var _ interface{ SetRoundContext(round, epoch string) } = (*timedMedium)(nil)

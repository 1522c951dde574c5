package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"dlsbl/internal/adversarytest"
	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/referee"
)

// The sentinel's false-positive contract: the economic invariants it
// checks hold on EVERY correct execution of the mechanism, no matter how
// the agents behave — deviants are convicted with evidence, evictions
// are corroborated, and the arithmetic always balances. A sentinel
// attached to any protocol run (honest, faulty bus, or full Byzantine
// tiers) must therefore stay clear; anything it latches in these sweeps
// is a protocol bug, not an adversary.

// runWithSentinel plays cfg with a fresh sentinel attached, fails the
// test if it latches, and returns the run's outcome.
func runWithSentinel(t *testing.T, name string, cfg Config) *Outcome {
	t.Helper()
	s := obs.NewSentinel()
	cfg.Tracer = obs.Multi(cfg.Tracer, s)
	out, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !s.Ok() {
		t.Errorf("%s: sentinel latched on a correct execution: %q", name, s.Violations())
	}
	return out
}

func TestSentinelStaysClearOnHonestRuns(t *testing.T) {
	for _, net := range []dlt.Network{dlt.NCPFE, dlt.NCPNFE} {
		runWithSentinel(t, net.String(), honestConfig(net))
	}
}

// The X16 shape: an unreliable bus (drops, duplicates, jitter) under a
// tight retry budget, driving retransmissions and eviction paths.
func TestSentinelStaysClearOnFaultyBusSweep(t *testing.T) {
	for _, p := range []float64{0.1, 0.2, 0.3} {
		for trial := 0; trial < 3; trial++ {
			cfg := honestConfig(dlt.NCPFE)
			cfg.Faults = &bus.FaultPlan{
				Seed:      int64(trial)*101 + 7,
				Drop:      p,
				Duplicate: p / 2,
				JitterMax: p,
			}
			cfg.Retry = RetryPolicy{MaxAttempts: 3}
			name := fmt.Sprintf("p=%.1f/trial=%d", p, trial)
			s := obs.NewSentinel()
			cfg.Tracer = s
			// An aborted run (retry budget exhausted) is a legitimate
			// outcome here; the sentinel must stay clear either way.
			if _, err := Run(cfg); err != nil {
				t.Logf("%s: aborted: %v", name, err)
			}
			if !s.Ok() {
				t.Errorf("%s: sentinel latched: %q", name, s.Violations())
			}
		}
	}
}

// The X19 shape: the Byzantine adversary tiers — targeted faults below
// and at the corroboration threshold, random link faults, framing,
// crashes, and referee failover — each producing real evictions and
// convictions whose transcript must still satisfy the sentinel. Every
// tier must also hold its defensive outcome: the honest survivors
// finish the round, no honest processor is fined, and the tier's own
// check (eviction set, framing conviction, verified failover
// transcript) passes.
func TestSentinelStaysClearOnAdversaryTiers(t *testing.T) {
	const m = 6
	rng := rand.New(rand.NewSource(42))
	w := make([]float64, m)
	for i := range w {
		w[i] = 0.5 + rng.Float64()*7.5
	}
	base := Config{Network: dlt.NCPFE, Z: 0.1, TrueW: w, Seed: 42, NBlocks: 8 * m}
	victim := adversarytest.ProcID(m / 2)
	peers := func(n int) []string {
		var ids []string
		for i := 0; i < m && len(ids) < n; i++ {
			if id := adversarytest.ProcID(i); id != victim {
				ids = append(ids, id)
			}
		}
		return ids
	}
	thresh := referee.CorroborationThreshold(m)
	evictsNobody := func(out *Outcome) error {
		if len(out.Evictions) != 0 {
			return fmt.Errorf("evicted %v, want nobody", out.Evictions)
		}
		return nil
	}
	evictsVictim := func(out *Outcome) error {
		if len(out.Evictions) != 1 || out.Evictions[0].Proc != victim {
			return fmt.Errorf("evicted %v, want exactly %s", out.Evictions, victim)
		}
		return nil
	}

	cases := []struct {
		name string
		cfg  func() Config
		// check judges the tier's defensive outcome beyond completion.
		check func(out *Outcome) error
	}{
		{"drop-below-threshold", func() Config {
			cfg := base
			cfg.Faults = adversarytest.Blackhole(42, victim, peers(thresh-1)...)
			return cfg
		}, evictsNobody},
		{"drop-at-threshold", func() Config {
			cfg := base
			cfg.Faults = adversarytest.Blackhole(42, victim, peers(thresh)...)
			return cfg
		}, evictsVictim},
		{"random-pairs", func() Config {
			cfg := base
			cfg.Faults = adversarytest.RandomPairs(42, m, 4, 0.8)
			return cfg
		}, func(*Outcome) error { return nil }},
		{"framing", func() Config {
			cfg := base
			cfg.Behaviors = adversarytest.Framing(m, 0)
			return cfg
		}, func(out *Outcome) error {
			if rival := adversarytest.FramingRival(m, 0); out.Evicted[rival] {
				return fmt.Errorf("framed rival %s lost its seat", out.Procs[rival])
			}
			if !(out.Fines[0] > 0) {
				return fmt.Errorf("framer %s not fined", out.Procs[0])
			}
			return nil
		}},
		{"crash", func() Config {
			cfg := base
			cfg.Faults = adversarytest.CrashPlan(42, 0, victim)
			return cfg
		}, evictsVictim},
		{"crash-with-failover", func() Config {
			cfg := base
			cfg.Standby = true
			cfg.FailoverIn = obs.PhaseProcessing
			cfg.Faults = adversarytest.CrashPlan(42, 0, victim)
			return cfg
		}, func(out *Outcome) error {
			if err := evictsVictim(out); err != nil {
				return err
			}
			return referee.VerifyEntries(out.Transcript)
		}},
	}
	for _, tc := range cases {
		cfg := tc.cfg()
		out := runWithSentinel(t, tc.name, cfg)
		if !out.Completed {
			t.Errorf("%s: honest survivors did not finish (terminated in %s)", tc.name, out.TerminatedIn)
		}
		for i, fine := range out.Fines {
			if fine > 0 && (cfg.Behaviors == nil || !cfg.Behaviors[i].FrameRival) {
				t.Errorf("%s: honest %s fined %v", tc.name, out.Procs[i], fine)
			}
		}
		if err := tc.check(out); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// Every single-agent deviation the referee can convict must leave an
// evidence trail the sentinel accepts.
func TestSentinelStaysClearOnConvictedDeviants(t *testing.T) {
	deviants := []agent.Behavior{
		{Name: "equivocate", Equivocate: true},
		{Name: "false-equivocation-report", FalseEquivocationReport: true},
		{Name: "false-shortage-claim", FalseShortageClaim: true},
		{Name: "false-excess-claim", FalseExcessClaim: true},
		{Name: "wrong-payment", WrongPaymentFactor: 1.5},
		{Name: "equivocate-payments", EquivocatePayments: true},
		{Name: "tamper-bid-vector", TamperBidVectorEntry: true},
		{Name: "misallocate", MisallocateExtraBlocks: 2},
		{Name: "short-ship", MisallocateExtraBlocks: -2},
		{Name: "overbid", BidFactor: 1.6},
	}
	for _, b := range deviants {
		runWithSentinel(t, b.Name, withBehavior(honestConfig(dlt.NCPFE), 1, b))
	}
}

// replayThrough plays a recorder's event records into a sentinel,
// optionally doctoring each event first — the true-positive harness: a
// stream that reports something the mechanism did not do must latch.
func replayThrough(s *obs.Sentinel, recs []obs.Record, doctor func(*obs.Event) bool) {
	for _, r := range recs {
		if r.Type != "event" {
			continue
		}
		e := obs.Event{
			Kind: r.Name, From: r.From, To: r.To, Msg: r.Msg,
			Round: r.Round, Detail: r.Detail, Origin: r.Origin,
			Values: append([]float64(nil), r.Values...),
		}
		if doctor != nil && !doctor(&e) {
			continue
		}
		s.Event(e)
	}
}

func TestSentinelLatchesOnDoctoredStreams(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := withBehavior(honestConfig(dlt.NCPFE), 1, agent.Behavior{Name: "framing", FrameRival: true})
	cfg.Tracer = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	recs := rec.Records()

	// Sanity: the untampered replay is clean.
	s := obs.NewSentinel()
	replayThrough(s, recs, nil)
	if !s.Ok() {
		t.Fatalf("untampered replay latched: %q", s.Violations())
	}

	t.Run("inflated-payment", func(t *testing.T) {
		s := obs.NewSentinel()
		first := true
		replayThrough(s, recs, func(e *obs.Event) bool {
			if e.Kind == obs.EvPayment && first {
				first = false
				e.Values[0] *= 1.01 // Q no longer equals C + B
			}
			return true
		})
		if s.Ok() {
			t.Fatal("tampered payment Q did not latch")
		}
	})
	t.Run("skimmed-invoice", func(t *testing.T) {
		s := obs.NewSentinel()
		replayThrough(s, recs, func(e *obs.Event) bool {
			if e.Kind == obs.EvInvoice {
				e.Values[0] *= 0.99 // user billed less than processors received
			}
			return true
		})
		if s.Ok() {
			t.Fatal("skimmed invoice did not latch")
		}
	})
	t.Run("conviction-without-evidence", func(t *testing.T) {
		s := obs.NewSentinel()
		replayThrough(s, recs, func(e *obs.Event) bool {
			// Drop every signed-evidence submission; the framer's
			// conviction then arrives unsubstantiated.
			return e.Kind != obs.EvEvidence && e.Kind != obs.EvWitnessReport
		})
		if s.Ok() {
			t.Fatal("evidence-free conviction did not latch")
		}
	})
}

func TestSentinelLatchesOnUnwitnessedEviction(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := honestConfig(dlt.NCPFE)
	cfg.Tracer = rec
	cfg.Faults = adversarytest.Blackhole(1, "P3", "P1", "P2") // corroborated eviction
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	s := obs.NewSentinel()
	replayThrough(s, rec.Records(), func(e *obs.Event) bool {
		return e.Kind != obs.EvWitnessReport // erase the corroboration trail
	})
	if s.Ok() {
		t.Fatal("eviction stripped of its witness reports did not latch")
	}
}

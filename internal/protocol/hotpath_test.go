package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/sig"
)

// TestHotPathParityProperty is the fast-path soundness property: for
// random pools, random per-job behaviors (bid-space deviants, slack
// execution, payment cheats — and occasionally bidding-phase deviants
// that terminate the round), random fault plans and random mid-stream
// rate changes, a session on the legacy path (JSON codec, memoization
// disabled) and a session on the hot path (binary codec, verified-envelope
// memo) produce bit-identical Outcomes — payments, fines, utilities,
// verdicts, transcript hashes, traffic counters, everything. The fast
// path changes how bytes are encoded and which verifications are
// *re*-performed, never what is accepted or paid.
func TestHotPathParityProperty(t *testing.T) {
	const iterations = 20
	const jobsPerPool = 5
	for it := 0; it < iterations; it++ {
		it := it
		t.Run(fmt.Sprintf("pool%02d", it), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(9000 + it)))
			m := 2 + rng.Intn(5)
			w := make([]float64, m)
			for i := range w {
				w[i] = 0.5 + 4*rng.Float64()
			}
			network := dlt.NCPFE
			if rng.Intn(2) == 1 {
				network = dlt.NCPNFE
			}
			z := 0.05 + rng.Float64()/2

			cold, err := NewBidSession(Config{
				Network: network, Z: z, TrueW: w,
				Codec: sig.CodecJSON, Memo: sig.DisabledVerifyMemo(),
			})
			if err != nil {
				t.Fatal(err)
			}
			hot, err := NewBidSession(Config{
				Network: network, Z: z, TrueW: w,
				Codec: sig.CodecBinary, // Memo defaults to an enabled one
			})
			if err != nil {
				t.Fatal(err)
			}

			behaviors := make([]agent.Behavior, m)
			roll := func() {
				for i := range behaviors {
					switch rng.Intn(8) {
					case 0:
						behaviors[i] = agent.OverBid
					case 1:
						behaviors[i] = agent.UnderBid
					case 2:
						behaviors[i] = agent.SlowExecution
					case 3:
						behaviors[i] = agent.PaymentCheat
					case 4:
						behaviors[i] = agent.Equivocator
					default:
						behaviors[i] = agent.Behavior{}
					}
				}
			}
			roll()

			for j := 0; j < jobsPerPool; j++ {
				// Occasionally mutate the stream the way a live pool does:
				// new behaviors (forces a full rebid in both arms) or a
				// single rate change (runs the incremental splice path in
				// both arms).
				switch rng.Intn(4) {
				case 0:
					roll()
				case 1:
					i := rng.Intn(m)
					nw := 0.5 + 4*rng.Float64()
					if err := cold.AnnounceRate(i, nw); err != nil {
						t.Fatal(err)
					}
					if err := hot.AnnounceRate(i, nw); err != nil {
						t.Fatal(err)
					}
				}
				job := JobConfig{
					Seed:      rng.Int63n(1 << 30),
					NBlocks:   32 * m,
					Behaviors: append([]agent.Behavior(nil), behaviors...),
				}
				if rng.Intn(4) > 0 {
					job.Faults = &bus.FaultPlan{
						Seed:      rng.Int63n(1 << 30),
						Drop:      rng.Float64() * 0.15,
						Duplicate: rng.Float64() * 0.2,
						Delay:     rng.Float64() * 0.3,
						Reorder:   rng.Float64() * 0.2,
						Corrupt:   rng.Float64() * 0.05,
					}
				}

				coldOut, coldErr := cold.Run(job)
				hotOut, hotErr := hot.Run(job)
				if (coldErr == nil) != (hotErr == nil) {
					t.Fatalf("job %d: cold err %v, hot err %v", j, coldErr, hotErr)
				}
				if coldErr != nil {
					if coldErr.Error() != hotErr.Error() {
						t.Fatalf("job %d: errors diverge\ncold %v\n hot %v", j, coldErr, hotErr)
					}
					continue
				}
				if !reflect.DeepEqual(coldOut, hotOut) {
					t.Fatalf("job %d: hot-path outcome diverges from legacy path\ncold %+v\n hot %+v", j, coldOut, hotOut)
				}
			}
			if cs, hs := cold.Stats(), hot.Stats(); cs != hs {
				t.Fatalf("session stats diverge: cold %+v, hot %+v", cs, hs)
			}
		})
	}
}

// econView extracts the economic payload of an outcome for comparison
// against an independent protocol.Run (which has no session fields like
// RoundID or BidSpliced).
type econView struct {
	Bids, Exec, Phi, Payments, Fines, Rewards, Utilities, WorkCost []float64
	Alloc                                                          dlt.Allocation
	UserCost, Makespan, Fine                                       float64
	Completed                                                      bool
}

func econOf(o *Outcome) econView {
	return econView{
		Bids: o.Bids, Exec: o.Exec, Phi: o.Phi, Payments: o.Payments,
		Fines: o.Fines, Rewards: o.Rewards, Utilities: o.Utilities,
		WorkCost: o.WorkCost, Alloc: o.Alloc, UserCost: o.UserCost,
		Makespan: o.Makespan, Fine: o.FineMagnitude, Completed: o.Completed,
	}
}

// runSpliceRound runs one session job under a recorder and asserts it was
// served by the incremental re-bid path: BidSpliced set, BidReused clear,
// a bid-splice transcript entry, and the bid_spliced obs event.
func runSpliceRound(t *testing.T, s *BidSession, job JobConfig) *Outcome {
	t.Helper()
	rec := obs.NewRecorder()
	job.Tracer = rec
	out, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !out.BidSpliced || out.BidReused {
		t.Fatalf("BidSpliced=%v BidReused=%v, want spliced round", out.BidSpliced, out.BidReused)
	}
	found := false
	for _, e := range out.Transcript {
		if e.Action == "bid-splice" {
			found = true
		}
	}
	if !found {
		t.Error("spliced round left no bid-splice transcript entry")
	}
	found = false
	for _, r := range rec.Records() {
		if r.Name == obs.EvBidSpliced {
			found = true
		}
	}
	if !found {
		t.Error("spliced round emitted no bid_spliced obs event")
	}
	return out
}

// TestIncrementalRebidRateChange: a single member announcing a new rate
// triggers a splice round — only that member re-broadcasts (Θ(m)
// deliveries instead of Θ(m²)) — whose economics are bit-identical to a
// fresh protocol.Run at the new rates; the pool then settles back into
// reuse of the spliced cache.
func TestIncrementalRebidRateChange(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5, 3, 3.5}
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 7, NBlocks: 96}

	full, err := s.Run(job) // round 1: full exchange
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(job); err != nil { // round 2: reuse
		t.Fatal(err)
	}
	if err := s.AnnounceRate(2, 1.25); err != nil {
		t.Fatal(err)
	}
	spliced := runSpliceRound(t, s, job) // round 3: splice

	w2 := append([]float64(nil), w...)
	w2[2] = 1.25
	independent, err := Run(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w2, Seed: 7, NBlocks: 96})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := econOf(spliced), econOf(independent); !reflect.DeepEqual(got, want) {
		t.Fatalf("spliced round economics diverge from independent run\n got %+v\nwant %+v", got, want)
	}

	// The splice re-broadcast is Θ(m): the full exchange's round put m
	// bid broadcasts on the bus, the splice round exactly one.
	if spliced.BusStats.Deliveries >= full.BusStats.Deliveries {
		t.Errorf("splice round cost %d deliveries, full exchange %d; want fewer",
			spliced.BusStats.Deliveries, full.BusStats.Deliveries)
	}

	out4, err := s.Run(job) // round 4: reuse of the spliced cache
	if err != nil {
		t.Fatal(err)
	}
	if !out4.BidReused || out4.BidSpliced {
		t.Fatalf("round after splice: BidReused=%v BidSpliced=%v, want pure reuse", out4.BidReused, out4.BidSpliced)
	}
	st := s.Stats()
	if st.Rebids != 1 || st.IncrementalRebids != 1 || st.RoundsSinceRebid != 1 {
		t.Fatalf("stats = %+v, want 1 rebid, 1 incremental, 1 since", st)
	}
}

// TestIncrementalRebidJoin: an appended member joins by broadcasting one
// fresh bid while incumbents' cached envelopes are spliced in (and
// forwarded to the newcomer); economics match a fresh run over the grown
// pool.
func TestIncrementalRebidJoin(t *testing.T) {
	w := []float64{1, 1.5, 2}
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 11, NBlocks: 64}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(2.5); err != nil {
		t.Fatal(err)
	}
	spliced := runSpliceRound(t, s, job)

	independent, err := Run(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 1.5, 2, 2.5}, Seed: 11, NBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := econOf(spliced), econOf(independent); !reflect.DeepEqual(got, want) {
		t.Fatalf("join-splice economics diverge from independent run\n got %+v\nwant %+v", got, want)
	}
	if st := s.Stats(); st.Rebids != 1 || st.IncrementalRebids != 1 {
		t.Fatalf("stats = %+v, want 1 rebid and 1 incremental", st)
	}
}

// TestIncrementalRebidLeave: a departing member costs no bid traffic at
// all — the survivors' cached envelopes are re-verified and spliced, and
// the economics match a fresh run where the member abstains.
func TestIncrementalRebidLeave(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5}
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 13, NBlocks: 64}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave(2); err != nil {
		t.Fatal(err)
	}
	spliced := runSpliceRound(t, s, job)

	independent, err := Run(Config{
		Network: dlt.NCPFE, Z: 0.2, TrueW: w, Seed: 13, NBlocks: 64,
		Behaviors: []agent.Behavior{{}, {}, {Name: "departed", Abstain: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := econOf(spliced), econOf(independent); !reflect.DeepEqual(got, want) {
		t.Fatalf("leave-splice economics diverge from independent run\n got %+v\nwant %+v", got, want)
	}
}

// TestSpliceFallsBackToFullRebid pins the splice preconditions: a
// two-member delta and a deviant profile are both unspliceable, so the
// session runs the full exchange — correctness never depends on the fast
// path applying.
func TestSpliceFallsBackToFullRebid(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5}
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 17, NBlocks: 64}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}

	// Two rates change at once: not a single-member delta.
	if err := s.AnnounceRate(1, 1.6); err != nil {
		t.Fatal(err)
	}
	if err := s.AnnounceRate(2, 2.1); err != nil {
		t.Fatal(err)
	}
	out, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if out.BidSpliced || out.BidReused {
		t.Fatalf("two-member delta: BidSpliced=%v BidReused=%v, want full rebid", out.BidSpliced, out.BidReused)
	}

	// The changed member equivocates: the new profile has a bidding-phase
	// deviant, which is never spliceable (and terminates the round).
	if err := s.AnnounceRate(1, 1.7); err != nil {
		t.Fatal(err)
	}
	deviant := JobConfig{Seed: 19, NBlocks: 64,
		Behaviors: []agent.Behavior{{}, agent.Equivocator}}
	out, err = s.Run(deviant)
	if err != nil {
		t.Fatal(err)
	}
	if out.BidSpliced {
		t.Fatal("deviant profile ran the splice path")
	}
	if out.Completed {
		t.Fatal("equivocation round completed; expected a terminating verdict")
	}
	if st := s.Stats(); st.IncrementalRebids != 0 {
		t.Fatalf("stats = %+v, want no incremental rebids", st)
	}
}

// TestSessionMemoCollapsesVerification pins the memo's effect where it
// matters: across reuse rounds the session's shared memo absorbs the
// cached-bid re-verifications, so round n+1 performs no more full
// verifications of bid envelopes than round n forced.
func TestSessionMemoCollapsesVerification(t *testing.T) {
	memo := sig.NewVerifyMemo()
	s, err := NewBidSession(Config{
		Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 1.5, 2, 2.5},
		Memo: memo,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 23, NBlocks: 64}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	after1 := memo.Stats()
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	after2 := memo.Stats()
	if after2.Hits <= after1.Hits {
		t.Fatalf("reuse round hit the memo %d times (was %d); want growth", after2.Hits, after1.Hits)
	}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	after3 := memo.Stats()
	// Every round signs fresh per-round artifacts (meters, payment
	// submissions) that rightly miss — their round stamp is new — so the
	// steady-state invariant is that reuse rounds miss a constant amount:
	// the cached-bid re-verifications have all collapsed into hits.
	if d2, d3 := after2.Misses-after1.Misses, after3.Misses-after2.Misses; d3 > d2 {
		t.Fatalf("reuse-round misses grew: %d then %d; cached bids are not memoized", d2, d3)
	}
}

// TestParallelSealParity: a round signs its m bids and m payment vectors
// (and pre-verifies them into the memo) across GOMAXPROCS workers. Ed25519
// signing is deterministic, so nothing downstream — payments, fines,
// verdicts, transcript hashes, traffic and memo counters — may depend on
// how many workers ran. The same job stream (full bid, reuse, lossy bus,
// rate splice, payment cheat and equivocator, bid equivocator) runs at
// GOMAXPROCS 1 and 2 under both codecs.
func TestParallelSealParity(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5, 3}
	jobs := []JobConfig{
		{Seed: 5},
		{Seed: 5},
		{Seed: 6, Faults: &bus.FaultPlan{Seed: 3, Drop: 0.1, Duplicate: 0.1, Reorder: 0.1, Corrupt: 0.03}},
		{Seed: 7}, // after a single rate change: the splice path
		{Seed: 8, Behaviors: []agent.Behavior{{}, agent.PaymentCheat, {}, agent.PaymentLiar}},
		{Seed: 9, Behaviors: []agent.Behavior{{}, {}, agent.Equivocator}},
	}
	stream := func(procs int, codec sig.Codec) ([]*Outcome, sig.MemoStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		memo := sig.NewVerifyMemo()
		s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Codec: codec, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		var outs []*Outcome
		for j, job := range jobs {
			if j == 3 {
				if err := s.AnnounceRate(1, 1.7); err != nil {
					t.Fatal(err)
				}
			}
			out, err := s.Run(job)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d job %d: %v", procs, j, err)
			}
			outs = append(outs, out)
		}
		return outs, memo.Stats()
	}
	for _, codec := range []sig.Codec{sig.CodecJSON, sig.CodecBinary} {
		one, memo1 := stream(1, codec)
		two, memo2 := stream(2, codec)
		for j := range one {
			if !reflect.DeepEqual(one[j], two[j]) {
				t.Fatalf("%v job %d: outcome at GOMAXPROCS=2 diverges from GOMAXPROCS=1\n 1: %+v\n 2: %+v", codec, j, one[j], two[j])
			}
		}
		if memo1 != memo2 {
			t.Fatalf("%v: memo counters diverge: GOMAXPROCS=1 %+v, GOMAXPROCS=2 %+v", codec, memo1, memo2)
		}
		if !one[3].BidSpliced || one[len(one)-1].Completed {
			t.Fatalf("%v: stream did not exercise the splice and terminating paths", codec)
		}
	}
}

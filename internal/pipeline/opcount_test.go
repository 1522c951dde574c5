package pipeline

import (
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/dlt"
	"dlsbl/internal/protocol"
	"dlsbl/internal/sig"
)

// TestPipelinedVerifyCounts gates the signature work of a pipelined load
// exactly, by full Ed25519 verifications (verify-memo misses) on a warm
// m=16 session. A geometric R=4 load signs one payment envelope per
// member for the whole load, so it verifies m payment envelopes plus the
// R distinct meter broadcasts; a whole-load round verifies its m payment
// vectors (its meters repeat the warm-up round's bytes and hit). A
// payment cheat is still convicted and fined in every installment.
func TestPipelinedVerifyCounts(t *testing.T) {
	const m, fine = 16, 24.0
	w := make([]float64, m)
	for i := range w {
		w[i] = 1 + 0.25*float64(i)
	}
	cheater := 5
	cheat := make([]agent.Behavior, m)
	cheat[cheater] = agent.PaymentCheat
	cases := []struct {
		name       string
		rounds     int
		behaviors  []agent.Behavior
		wantMisses int64
		wantFined  int
	}{
		{name: "honest R=4", rounds: 4, wantMisses: m + 4},
		{name: "R=1", rounds: 1, wantMisses: m},
		{name: "payment-cheat R=4", rounds: 4, behaviors: cheat, wantMisses: m + 4, wantFined: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			memo := sig.NewVerifyMemo()
			s, err := protocol.NewBidSession(protocol.Config{
				Network: dlt.NCPFE, Z: 0.1, TrueW: w, Fine: fine, Codec: sig.CodecBinary, Memo: memo,
			})
			if err != nil {
				t.Fatal(err)
			}
			job := protocol.JobConfig{Seed: 1}
			if _, err := s.Run(job); err != nil {
				t.Fatal(err)
			}
			before := memo.Stats().Misses
			job.Behaviors = tc.behaviors
			out, err := RunLoad(s, Load{Job: job, Rounds: tc.rounds, Policy: dlt.GeometricRounds})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Completed {
				t.Fatalf("load terminated in %s", out.TerminatedIn)
			}
			if got := memo.Stats().Misses - before; got != tc.wantMisses {
				t.Errorf("%d full verifications, want %d", got, tc.wantMisses)
			}
			convictions := 0
			for _, v := range out.Verdicts {
				for _, g := range v.Guilty {
					if g != "P6" {
						t.Errorf("honest %s convicted: %s", g, v.Reason)
					}
					convictions++
				}
			}
			if convictions != tc.wantFined {
				t.Errorf("%d convictions, want %d", convictions, tc.wantFined)
			}
			if want := fine * float64(tc.wantFined); out.Fines[cheater] != want {
				t.Errorf("cheater fined %v, want %v", out.Fines[cheater], want)
			}
		})
	}
}

package protocol

import (
	"fmt"
	"strings"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
)

// TestLoadRoundInstallments drives the installment API directly: a load
// served as two equal installments completes both, stamps the
// "<salt>:rN.iK" IDs, and scales each installment's money flow by its
// fraction; accessor coverage (Network, Z) rides along.
func TestLoadRoundInstallments(t *testing.T) {
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{3, 2, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Network() != dlt.NCPFE || s.Z() != 0.2 {
		t.Fatalf("accessors: network %v, z %v", s.Network(), s.Z())
	}
	job := JobConfig{Seed: 7, NBlocks: 64}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	load, err := s.BeginLoad(2, dlt.EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	fracs, err := dlt.RoundFractions(2, dlt.EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	for k, frac := range fracs {
		ended, err := load.Serve(job, frac)
		if err != nil {
			t.Fatal(err)
		}
		if ended != (k == 1) {
			t.Fatalf("installment %d: ended = %v", k+1, ended)
		}
	}
	outs, err := load.Settle()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for k, out := range outs {
		if !out.Completed {
			t.Fatalf("installment %d terminated in %s", k+1, out.TerminatedIn)
		}
		if want := fmt.Sprintf(":r%d.i%d", load.n, k+1); !strings.HasSuffix(out.RoundID, want) {
			t.Errorf("installment %d round ID %q, want suffix %q", k+1, out.RoundID, want)
		}
		if out.Installment != k+1 || out.LoadFraction != fracs[k] {
			t.Errorf("installment %d stamped (%d, %v), want (%d, %v)",
				k+1, out.Installment, out.LoadFraction, k+1, fracs[k])
		}
		for _, q := range out.Payments {
			total += q
		}
	}
	if total <= 0 {
		t.Error("installments paid nothing")
	}

	// Guard rails: an ended load, out-of-range installment counts and
	// fractions are rejected.
	if _, err := load.Serve(job, 0.5); err == nil {
		t.Error("installment 3 of 2 accepted")
	}
	for _, of := range []int{0, MaxInstallments + 1} {
		if _, err := s.BeginLoad(of, dlt.EqualRounds); err == nil {
			t.Errorf("load of %d installments accepted", of)
		}
	}
	fresh, err := s.BeginLoad(2, dlt.EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Serve(job, 0); err == nil {
		t.Error("zero fraction accepted")
	}
}

// TestLoadRoundSignsOncePerLoad: the installments of one load settle
// with a single LoadPaymentPayload envelope per member, submitted to
// every installment's referee; each installment's transcript still
// verifies on its own.
func TestLoadRoundSignsOncePerLoad(t *testing.T) {
	for _, codec := range []sig.Codec{sig.CodecJSON, sig.CodecBinary} {
		s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{3, 2, 4, 5}, Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		job := JobConfig{Seed: 7, NBlocks: 64}
		if _, err := s.Run(job); err != nil {
			t.Fatal(err)
		}
		const of = 3
		load, err := s.BeginLoad(of, dlt.GeometricRounds)
		if err != nil {
			t.Fatal(err)
		}
		fracs, _ := dlt.RoundFractions(of, dlt.GeometricRounds)
		var runs []*run
		for _, f := range fracs {
			if _, err := load.Serve(job, f); err != nil {
				t.Fatal(err)
			}
			runs = append(runs, load.pending[len(load.pending)-1].r)
		}
		envs, seconds, err := sealPayments(runs)
		if err != nil {
			t.Fatal(err)
		}
		if seconds != nil {
			t.Errorf("%v: honest members signed second envelopes", codec)
		}
		for i, env := range envs {
			var lp referee.LoadPaymentPayload
			if err := env.Open(runs[0].reg, &lp); err != nil {
				t.Fatal(err)
			}
			if env.Kind != referee.KindLoadPayment || lp.Proc != runs[0].procs[i] || lp.First != 1 || len(lp.Q) != of {
				t.Fatalf("%v: envelope %d is %s %+v", codec, i, env.Kind, lp)
			}
			if want := (RoundRef{Salt: s.salt, Round: load.n}).String(); lp.Round != want {
				t.Errorf("%v: envelope bound to %q, want the load round %q", codec, lp.Round, want)
			}
		}
		outs, err := load.Settle()
		if err != nil {
			t.Fatal(err)
		}
		for k, out := range outs {
			if !out.Completed || len(out.Verdicts) == 0 || !out.Verdicts[len(out.Verdicts)-1].Clean() {
				t.Errorf("%v: installment %d: completed=%v verdicts=%+v", codec, k+1, out.Completed, out.Verdicts)
			}
			if err := referee.VerifyEntries(out.Transcript); err != nil {
				t.Errorf("%v: installment %d transcript: %v", codec, k+1, err)
			}
		}
	}
}

// TestLoadRoundTerminatesWithPending: a terminating verdict in a later
// installment ends the load there, and the installments already served
// settle their payments as usual — the terminated one pays nothing and
// fines the deviant once.
func TestLoadRoundTerminatesWithPending(t *testing.T) {
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{3, 2, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	honest := JobConfig{Seed: 7, NBlocks: 64}
	if _, err := s.Run(honest); err != nil {
		t.Fatal(err)
	}
	load, err := s.BeginLoad(4, dlt.EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if ended, err := load.Serve(honest, 0.25); err != nil || ended {
			t.Fatalf("installment %d: ended=%v err=%v", k+1, ended, err)
		}
	}
	if len(load.pending) != 2 {
		t.Fatalf("%d installments pending, want 2", len(load.pending))
	}
	deviant := honest
	deviant.Behaviors = []agent.Behavior{{}, agent.Equivocator}
	ended, err := load.Serve(deviant, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !ended {
		t.Fatal("equivocation did not end the load")
	}
	outs, err := load.Settle()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("%d outcomes, want 3", len(outs))
	}
	for k, out := range outs[:2] {
		if !out.Completed || out.Payments[1] <= 0 {
			t.Errorf("installment %d: completed=%v payments=%v", k+1, out.Completed, out.Payments)
		}
	}
	last := outs[2]
	if last.Completed || last.Fines[1] != last.FineMagnitude || last.Payments != nil {
		t.Errorf("terminated installment: completed=%v fines=%v payments=%v", last.Completed, last.Fines, last.Payments)
	}
}

// TestLoadRoundSettlesOnMemberChange: one load envelope covers only
// installments with the same members, so an installment whose member set
// differs from the pending ones settles them first.
func TestLoadRoundSettlesOnMemberChange(t *testing.T) {
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{3, 2, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 7, NBlocks: 64}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	load, err := s.BeginLoad(3, dlt.EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := load.Serve(job, 1.0/3); err != nil {
		t.Fatal(err)
	}
	without := job
	without.Behaviors = []agent.Behavior{{}, {}, {}, {Name: "away", Abstain: true}}
	for k := 2; k <= 3; k++ {
		if _, err := load.Serve(without, 1.0/3); err != nil {
			t.Fatal(err)
		}
	}
	if load.outs[0] == nil || len(load.pending) != 2 {
		t.Fatalf("installment 1 settled=%v, %d pending; want it settled before the member change and 2 pending",
			load.outs[0] != nil, len(load.pending))
	}
	outs, err := load.Settle()
	if err != nil {
		t.Fatal(err)
	}
	for k, out := range outs {
		if !out.Completed {
			t.Fatalf("installment %d did not complete", k+1)
		}
		if paid := out.Payments[3] > 0; paid != (k == 0) {
			t.Errorf("installment %d pays P4 %v", k+1, out.Payments[3])
		}
	}
}

// TestLoadRoundSettlesBeforeCrash: a member scheduled to crash in
// installment K signs the installments before K while it is alive — the
// pending installments settle before K starts — and the survivors' later
// installments settle together at the end of the load.
func TestLoadRoundSettlesBeforeCrash(t *testing.T) {
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{3, 2, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 7, NBlocks: 64}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	job.Faults = &bus.FaultPlan{Seed: 5, Crashes: []bus.Crash{{Proc: "P3", Installment: 3}}}
	rec := obs.NewRecorder()
	job.Tracer = rec
	load, err := s.BeginLoad(4, dlt.EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		if _, err := load.Serve(job, 0.25); err != nil {
			t.Fatal(err)
		}
		if k == 3 && (load.outs[0] == nil || load.outs[1] == nil || len(load.pending) != 1) {
			t.Fatalf("after the crash installment: settled %v %v, %d pending; want 1–2 settled, 3 pending",
				load.outs[0] != nil, load.outs[1] != nil, len(load.pending))
		}
	}
	if len(load.pending) != 2 {
		t.Fatalf("%d installments pending at the end, want 2", len(load.pending))
	}
	outs, err := load.Settle()
	if err != nil {
		t.Fatal(err)
	}
	for k, out := range outs {
		if !out.Completed {
			t.Fatalf("installment %d did not complete", k+1)
		}
		if paid := out.Payments[2] > 0; paid != (k < 2) {
			t.Errorf("installment %d pays P3 %v", k+1, out.Payments[2])
		}
	}
	settled, crashStart := -1, -1
	for _, r := range rec.Records() {
		if r.Name == obs.EvInvoice && strings.HasSuffix(r.Round, ".i2") {
			settled = r.Seq
		}
		if r.Type == "begin" && r.Name == obs.PhaseInit && strings.HasSuffix(r.Round, ".i3") {
			crashStart = r.Seq
		}
	}
	if settled < 0 || crashStart < 0 || settled > crashStart {
		t.Errorf("installment 2 invoiced at record %d, crash installment 3 started at %d; want the invoice first", settled, crashStart)
	}
}

package referee

import (
	"strings"
	"testing"

	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/sig"
)

// Conviction tests for the pipelined scheduler's sub-rounds: a load's
// members sign one payment envelope for all its installments, bound to
// the load's session round, so an envelope from another load is a
// stale-round replay; cross-installment equivocation stays convictable;
// and a payment dispute inside a sub-round is judged against the
// installment payment rule.

// loadPayment seals proc's load payment envelope: vector q for each of
// the installments first … first+n−1 of the load round.
func (f *fixture) loadPayment(t *testing.T, proc, round string, first, n int, q []float64) sig.Envelope {
	t.Helper()
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = q
	}
	env, err := sig.Seal(f.keys[proc], KindLoadPayment, LoadPaymentPayload{Proc: proc, Round: round, First: first, Q: qs})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func (f *fixture) bidAt(t *testing.T, proc, round string, bid float64) sig.Envelope {
	t.Helper()
	env, err := sig.Seal(f.keys[proc], KindBid, BidPayload{Proc: proc, Bid: bid, Round: round})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestJudgePaymentsStaleInstallmentReplay: a load payment envelope signed
// for load rN and replayed into installment rN+1.iK is convicted as a
// stale-round replay — the referee of a sub-round accepts only envelopes
// bound to its own load.
func TestJudgePaymentsStaleInstallmentReplay(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	const rounds, load, prev = 4, "s01:r3", "s01:r2"

	f.ref.BindRounds(load+".i2", "s01:r1")
	f.ref.RecordInstallment(load, 2, rounds, 0.25, dlt.EqualRounds)
	out, err := f.mech.RunRounds(bids, exec, rounds, dlt.EqualRounds, core.WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string][]sig.Envelope{
		"P1": {f.loadPayment(t, "P1", load, 1, rounds, out.Payment)},
		"P2": {f.loadPayment(t, "P2", prev, 1, rounds, out.Payment)}, // replayed from load r2
		"P3": {f.loadPayment(t, "P3", load, 1, rounds, out.Payment)},
	}
	v, q, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" {
		t.Fatalf("guilty = %v, want the replayer P2", v.Guilty)
	}
	if !strings.Contains(v.Reason, "stale-round replay") {
		t.Errorf("reason %q does not name the replay", v.Reason)
	}
	if !vectorsEqual(q, out.Payment) {
		t.Errorf("agreed Q = %v, want the installment truth %v", q, out.Payment)
	}
}

// TestJudgePaymentsLoadRange: the referee of installment K judges vector
// Q[K−First] of a load envelope, so an envelope whose range misses K is
// rejected, an envelope starting after installment 1 is read at the
// right offset, and a per-installment PaymentPayload — the retired
// per-installment form — is not accepted in a sub-round at all.
func TestJudgePaymentsLoadRange(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	const rounds, load = 4, "s01:r3"

	f.ref.BindRounds(load+".i3", "s01:r1")
	f.ref.RecordInstallment(load, 3, rounds, 0.25, dlt.EqualRounds)
	out, err := f.mech.RunRounds(bids, exec, rounds, dlt.EqualRounds, core.WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	// P3's envelope covers installments 2–4 with the truth at offset 1
	// (installment 3) and junk elsewhere: it must be read at that offset.
	junk := []float64{9, 9, 9}
	offset, err := sig.Seal(f.keys["P3"], KindLoadPayment, LoadPaymentPayload{
		Proc: "P3", Round: load, First: 2, Q: [][]float64{junk, out.Payment, junk},
	})
	if err != nil {
		t.Fatal(err)
	}
	perInstallment, err := sig.Seal(f.keys["P2"], KindPayment, PaymentPayload{Proc: "P2", Q: out.Payment, Round: load + ".i3"})
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string][]sig.Envelope{
		"P1": {f.loadPayment(t, "P1", load, 1, 2, out.Payment)}, // covers 1–2, misses 3
		"P2": {perInstallment},
		"P3": {offset},
	}
	v, q, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 2 || v.Guilty[0] != "P1" || v.Guilty[1] != "P2" {
		t.Fatalf("guilty = %v, want P1 (range misses installment 3) and P2 (per-installment vector)", v.Guilty)
	}
	if !strings.Contains(v.Reason, "covers installments 1–2, not installment 3") {
		t.Errorf("reason %q does not name the missed installment", v.Reason)
	}
	if !vectorsEqual(q, out.Payment) {
		t.Errorf("agreed Q = %v, want the installment truth %v", q, out.Payment)
	}
}

// TestJudgePaymentsInstallmentRecompute: a disputed payment vector in a
// pipelined sub-round is judged against the R-installment payment rule —
// a deviant submitting the single-round payment vector (the truth of the
// unpipelined mechanism, but not of this load) is convicted.
func TestJudgePaymentsInstallmentRecompute(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	const rounds, load = 4, "s01:r3"

	f.ref.BindRounds(load+".i2", "s01:r1")
	f.ref.RecordInstallment(load, 2, rounds, 0.25, dlt.EqualRounds)
	truth, err := f.mech.RunRounds(bids, exec, rounds, dlt.EqualRounds, core.WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	single, err := f.mech.Run(bids, exec)
	if err != nil {
		t.Fatal(err)
	}
	if vectorsEqual(truth.Payment, single.Payment) {
		t.Fatal("test needs the installment and single-round payments to differ")
	}
	subs := map[string][]sig.Envelope{
		"P1": {f.loadPayment(t, "P1", load, 1, rounds, truth.Payment)},
		"P2": {f.loadPayment(t, "P2", load, 1, rounds, single.Payment)},
		"P3": {f.loadPayment(t, "P3", load, 1, rounds, truth.Payment)},
	}
	v, q, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" {
		t.Fatalf("guilty = %v, want P2 (submitted the single-round vector)", v.Guilty)
	}
	if !vectorsEqual(q, truth.Payment) {
		t.Errorf("agreed Q = %v, want the installment truth %v", q, truth.Payment)
	}
}

// TestJudgeEquivocationAcrossInstallments: installments of one load are
// served from bids of one shared epoch, so contradictory signed bids of
// that epoch convict the equivocator no matter which installment the
// evidence surfaces in — and evidence from outside the epoch (a stale
// bid from an earlier load) stays unusable, turning the accusation back
// on the accuser.
func TestJudgeEquivocationAcrossInstallments(t *testing.T) {
	f := newFixture(t, 3, 100)
	const epoch = "s01:r1"
	a := f.bidAt(t, "P2", epoch, 2)
	b := f.bidAt(t, "P2", epoch, 3)

	// Evidence surfaces while sub-round r3.i2 of a pipelined load is live.
	f.ref.BindRounds("s01:r3.i2", epoch)
	f.ref.RecordInstallment("s01:r3", 2, 4, 0.25, dlt.EqualRounds)
	v, err := f.ref.JudgeEquivocation("P1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" || !v.Terminates {
		t.Fatalf("verdict = %+v, want P2 convicted with termination", v)
	}

	// Same contradiction, but one bid was signed for a different epoch:
	// not evidence in this load, so the accusation is unfounded.
	stale := f.bidAt(t, "P2", "s01:r2", 3)
	v, err = f.ref.JudgeEquivocation("P1", a, stale)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P1" {
		t.Fatalf("verdict = %+v, want the accuser P1 convicted", v)
	}
}

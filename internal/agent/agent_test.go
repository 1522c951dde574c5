package agent

import (
	"math"
	"testing"

	"dlsbl/internal/sig"
)

func key(t *testing.T, id string, seed int64) *sig.KeyPair {
	t.Helper()
	k, err := sig.GenerateKeyPair(id, sig.DeterministicSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestNormalizeDefaults(t *testing.T) {
	n := Behavior{}.Normalize()
	if n.BidFactor != 1 || n.SlackFactor != 1 || n.WrongPaymentFactor != 1 {
		t.Errorf("normalized zero behavior = %+v", n)
	}
	if n.Name != "honest" {
		t.Errorf("name = %q", n.Name)
	}
	if n.EquivocationFactor != 2 {
		t.Errorf("equivocation factor = %v", n.EquivocationFactor)
	}
	// Explicit values survive.
	b := Behavior{Name: "x", BidFactor: 1.5, SlackFactor: 2, WrongPaymentFactor: 3}.Normalize()
	if b.BidFactor != 1.5 || b.SlackFactor != 2 || b.WrongPaymentFactor != 3 || b.Name != "x" {
		t.Errorf("explicit behavior mangled: %+v", b)
	}
}

func TestDeviant(t *testing.T) {
	if Honest.Deviant() {
		t.Error("honest flagged deviant")
	}
	// Misreporting alone is not a finable deviation.
	if OverBid.Deviant() || UnderBid.Deviant() || SlowExecution.Deviant() {
		t.Error("pure misreporting/slacking flagged as protocol deviation")
	}
	for _, b := range DeviantCatalog {
		if !b.Deviant() {
			t.Errorf("catalog behavior %q not flagged deviant", b.Name)
		}
	}
}

func TestNewValidation(t *testing.T) {
	k := key(t, "P1", 1)
	if _, err := New("", k, 1, Honest); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := New("P1", nil, 1, Honest); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := New("P2", k, 1, Honest); err == nil {
		t.Error("key identity mismatch accepted")
	}
	if _, err := New("P1", k, 0, Honest); err == nil {
		t.Error("zero true value accepted")
	}
	if _, err := New("P1", k, math.Inf(1), Honest); err == nil {
		t.Error("infinite true value accepted")
	}
}

func TestBidAndExec(t *testing.T) {
	k := key(t, "P1", 2)
	honest, err := New("P1", k, 2, Honest)
	if err != nil {
		t.Fatal(err)
	}
	if honest.Bid() != 2 || honest.Exec() != 2 {
		t.Errorf("honest bid/exec = %v/%v", honest.Bid(), honest.Exec())
	}

	over, _ := New("P1", k, 2, OverBid)
	if over.Bid() != 3 {
		t.Errorf("overbid = %v, want 3", over.Bid())
	}
	if over.Exec() != 2 {
		t.Errorf("overbidder exec = %v, want true speed 2", over.Exec())
	}

	slow, _ := New("P1", k, 2, SlowExecution)
	if slow.Bid() != 2 || slow.Exec() != 3 {
		t.Errorf("slacker bid/exec = %v/%v, want 2/3", slow.Bid(), slow.Exec())
	}

	// SlackFactor below 1 clamps to true speed.
	impossible, _ := New("P1", k, 2, Behavior{SlackFactor: 0.5})
	if impossible.Exec() != 2 {
		t.Errorf("sub-unit slack produced exec %v", impossible.Exec())
	}
}

func TestSecondBid(t *testing.T) {
	k := key(t, "P1", 3)
	honest, _ := New("P1", k, 2, Honest)
	if _, ok := honest.SecondBid(); ok {
		t.Error("honest agent has a second bid")
	}
	eq, _ := New("P1", k, 2, Equivocator)
	b2, ok := eq.SecondBid()
	if !ok || b2 != 4 {
		t.Errorf("second bid = %v, %v; want 4, true", b2, ok)
	}
	if b2 == eq.Bid() {
		t.Error("second bid equals first — not an equivocation")
	}
}

func TestPaymentVector(t *testing.T) {
	k := key(t, "P1", 4)
	correct := []float64{1, 2, 3}
	honest, _ := New("P1", k, 2, Honest)
	got := honest.PaymentVector(correct, 0)
	for i := range correct {
		if got[i] != correct[i] {
			t.Errorf("honest vector = %v", got)
		}
	}
	got[1] = 99
	if correct[1] == 99 {
		t.Error("PaymentVector aliases its input")
	}

	cheat, _ := New("P1", k, 2, PaymentCheat)
	c := cheat.PaymentVector(correct, 1)
	if c[1] != 4 || c[0] != 1 || c[2] != 3 {
		t.Errorf("cheat vector = %v, want [1 4 3]", c)
	}
	// Out-of-range self index leaves the vector untouched.
	safe := cheat.PaymentVector(correct, 7)
	if safe[0] != 1 || safe[1] != 2 || safe[2] != 3 {
		t.Errorf("out-of-range self mangled vector: %v", safe)
	}
}

func TestTamperedOwnBid(t *testing.T) {
	k := key(t, "P1", 5)
	a, _ := New("P1", k, 2, VectorTamper)
	if a.TamperedOwnBid() == a.Bid() {
		t.Error("tampered bid equals real bid")
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range DeviantCatalog {
		n := b.Normalize().Name
		if seen[n] {
			t.Errorf("duplicate behavior name %q", n)
		}
		seen[n] = true
	}
}

// TestPaymentWithholderRegistryOnly: the withholder is selectable by name
// and counts as a deviant, but stays out of DeviantCatalog so the
// compliance experiments that sweep the catalog are unchanged.
func TestPaymentWithholderRegistryOnly(t *testing.T) {
	b, ok := ByName("payment-withholder")
	if !ok || !b.WithholdPayment || !b.Deviant() {
		t.Fatalf("ByName(payment-withholder) = %+v, %v", b, ok)
	}
	for _, d := range DeviantCatalog {
		if d.WithholdPayment {
			t.Fatalf("%s in DeviantCatalog withholds payments", d.Name)
		}
	}
}

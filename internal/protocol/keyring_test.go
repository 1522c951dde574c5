package protocol

import (
	"testing"

	"dlsbl/internal/dlt"
	"dlsbl/internal/sig"
)

// TestWarmKeyringBitIdenticalEconomics: running with a warm keyring must
// not perturb a single economic quantity. Payments, fines, allocations
// and utilities depend only on bids, meters and the block partition —
// never on key bytes — so a cached keypair changes cost, not outcome.
func TestWarmKeyringBitIdenticalEconomics(t *testing.T) {
	base := Config{Network: dlt.NCPFE, Z: 0.25, TrueW: []float64{1, 1.5, 2, 2.5, 3}}
	for seed := int64(1); seed <= 5; seed++ {
		cfg := base
		cfg.Seed = seed
		cold, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		ring := sig.NewKeyring()
		cfg.Keys = ring
		first, err := Run(cfg) // fills the ring
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Run(cfg) // reuses every pair
		if err != nil {
			t.Fatal(err)
		}

		for name, pair := range map[string][2]*Outcome{
			"cold vs filling": {cold, first},
			"cold vs warm":    {cold, warm},
		} {
			a, b := pair[0], pair[1]
			if !eq(a.Payments, b.Payments) || !eq(a.Fines, b.Fines) ||
				!eq(a.Alloc, b.Alloc) || !eq(a.Utilities, b.Utilities) ||
				a.UserCost != b.UserCost || a.Makespan != b.Makespan {
				t.Fatalf("seed %d %s: economics diverged", seed, name)
			}
		}
		// The ring holds exactly one pair per participant (m processors,
		// originator, referee) and repeated runs do not grow it.
		if want := len(base.TrueW) + 2; ring.Len() != want {
			t.Fatalf("keyring has %d pairs, want %d", ring.Len(), want)
		}
	}
}

// TestPartiallyWarmKeyring: a ring holding only some identities must
// still produce the cold run's exact outcome — the key-seed counter
// advances for cached identities too, so the generated remainder matches
// what a cold run would have drawn.
func TestPartiallyWarmKeyring(t *testing.T) {
	cfg := Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 2, 3}, Seed: 9}
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	full := sig.NewKeyring()
	cfg.Keys = full
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	partial := sig.NewKeyring()
	for _, id := range []string{"P2", "referee"} {
		k, _ := full.Get(id)
		if k == nil {
			t.Fatalf("full ring missing %s", id)
		}
		if err := partial.Put(k); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Keys = partial
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(out.Payments, cold.Payments) || !eq(out.Fines, cold.Fines) || !eq(out.Alloc, cold.Alloc) {
		t.Fatal("partially warm ring diverged from cold run")
	}
	if want := len(cfg.TrueW) + 2; partial.Len() != want {
		t.Fatalf("ring grew to %d pairs, want %d", partial.Len(), want)
	}
}

func eq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

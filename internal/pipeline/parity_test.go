package pipeline

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dlsbl/internal/adversarytest"
	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/protocol"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/parity_golden.json from the current code")

// goldenOutcome is the economic record of one load or installment: the
// money flows, the verdicts and the evictions — everything that must not
// move when only the way payments are signed changes.
type goldenOutcome struct {
	RoundID      string
	Completed    bool
	TerminatedIn string
	Payments     []float64
	Fines        []float64
	Rewards      []float64
	Utilities    []float64
	Verdicts     []referee.Verdict
	Evictions    []protocol.EvictionEvent
}

// goldenCase is one scenario: the aggregate load outcome followed by its
// installments in order.
type goldenCase struct {
	Name         string
	Load         goldenOutcome
	Installments []goldenOutcome
}

func toGolden(o *protocol.Outcome) goldenOutcome {
	return goldenOutcome{
		RoundID:      o.RoundID,
		Completed:    o.Completed,
		TerminatedIn: o.TerminatedIn,
		Payments:     o.Payments,
		Fines:        o.Fines,
		Rewards:      o.Rewards,
		Utilities:    o.Utilities,
		Verdicts:     o.Verdicts,
		Evictions:    o.Evictions,
	}
}

// parityScenarios serves every pipelined-load scenario the golden pins:
// honest, payment-cheat and payment-equivocator loads, a crash at
// installment 2 of 3, a load a terminating verdict cuts short, lossy
// buses (one with a cheat on it) and a bidding-phase eviction — at
// R ∈ {2,4} (the crash at R=3) under both codecs.
func parityScenarios(t *testing.T) []goldenCase {
	t.Helper()
	w := []float64{3, 2, 4, 5}
	withDeviant := func(b agent.Behavior) []agent.Behavior {
		bs := make([]agent.Behavior, len(w))
		bs[1] = b
		return bs
	}
	lossy := func() *bus.FaultPlan {
		return &bus.FaultPlan{Seed: 17, Drop: 0.1, Duplicate: 0.1, Reorder: 0.1}
	}
	type scenario struct {
		name   string
		rounds int
		job    protocol.JobConfig
		// cold skips the warm-up round, so the load's first installment
		// runs the full bid exchange itself.
		cold bool
	}
	var scs []scenario
	for _, r := range []int{2, 4} {
		scs = append(scs,
			scenario{name: "honest", rounds: r, job: protocol.JobConfig{Seed: 7, NBlocks: 64}},
			scenario{name: "payment-cheat", rounds: r, job: protocol.JobConfig{Seed: 7, NBlocks: 64, Behaviors: withDeviant(agent.PaymentCheat)}},
			scenario{name: "payment-equivocator", rounds: r, job: protocol.JobConfig{Seed: 7, NBlocks: 64, Behaviors: withDeviant(agent.PaymentLiar)}},
			scenario{name: "terminating-equivocator", rounds: r, job: protocol.JobConfig{Seed: 7, NBlocks: 64, Behaviors: withDeviant(agent.Equivocator)}},
			scenario{name: "lossy-warm", rounds: r, job: protocol.JobConfig{Seed: 7, NBlocks: 64, Faults: lossy()}},
			scenario{name: "lossy-cold", rounds: r, job: protocol.JobConfig{Seed: 7, NBlocks: 64, Faults: lossy()}, cold: true},
			scenario{name: "lossy-cheat", rounds: r, job: protocol.JobConfig{Seed: 7, NBlocks: 64, Behaviors: withDeviant(agent.PaymentCheat),
				Faults: &bus.FaultPlan{Seed: 23, Drop: 0.2, Duplicate: 0.1, Reorder: 0.1, Corrupt: 0.05}}},
			scenario{name: "blackholed-P4-cold", rounds: r, job: protocol.JobConfig{Seed: 7, NBlocks: 64,
				Faults: adversarytest.Blackhole(3, "P4", "P1", "P2")}, cold: true},
		)
	}
	scs = append(scs, scenario{name: "crash-P3-at-2", rounds: 3, job: protocol.JobConfig{Seed: 7, NBlocks: 64, Faults: adversarytest.CrashPlan(5, 2, "P3")}})

	var out []goldenCase
	for _, codec := range []sig.Codec{sig.CodecJSON, sig.CodecBinary} {
		for _, sc := range scs {
			for _, policy := range []dlt.RoundPolicy{dlt.EqualRounds, dlt.GeometricRounds} {
				name := fmt.Sprintf("%s/R=%d/%v/%v", sc.name, sc.rounds, policy, codec)
				s, err := protocol.NewBidSession(protocol.Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Codec: codec})
				if err != nil {
					t.Fatal(err)
				}
				if !sc.cold {
					if _, err := s.Run(protocol.JobConfig{Seed: 7, NBlocks: 64}); err != nil {
						t.Fatalf("%s: warm-up: %v", name, err)
					}
				}
				agg, err := RunLoad(s, Load{Job: sc.job, Rounds: sc.rounds, Policy: policy})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				gc := goldenCase{Name: name, Load: toGolden(agg)}
				for _, inst := range agg.Installments {
					gc.Installments = append(gc.Installments, toGolden(inst))
				}
				out = append(out, gc)
			}
		}
	}
	return out
}

// TestPipelinedEconomicsGolden pins the economics of pipelined loads to a
// golden recorded before installment payments were signed once per load:
// per-installment and aggregate payments, fines, rewards, utilities,
// verdicts and evictions must match it bit for bit. Regenerate with
// `go test ./internal/pipeline -run TestPipelinedEconomicsGolden -update`
// only when a change is meant to move the money.
func TestPipelinedEconomicsGolden(t *testing.T) {
	got := parityScenarios(t)
	path := filepath.Join("testdata", "parity_golden.json")
	if *updateGolden {
		// One scenario per line keeps the file diffable.
		b := []byte("[\n")
		for i, c := range got {
			line, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				b = append(b, ",\n"...)
			}
			b = append(b, line...)
		}
		b = append(b, "\n]\n"...)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	// Round-trip the fresh results through JSON too, so both sides compare
	// in the same representation (JSON float64 encoding is exact).
	b, err = json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d scenarios, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.MarshalIndent(got[i], "", " ")
			w, _ := json.MarshalIndent(want[i], "", " ")
			t.Errorf("%s diverges from the golden:\ngot  %s\nwant %s", want[i].Name, g, w)
		}
	}
}

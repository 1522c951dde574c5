package main

import (
	"fmt"
	"testing"

	"dlsbl/internal/adversarytest"
	"dlsbl/internal/experiments"
)

// TestAdversaryBenchMeetsTarget checks the adversary table dls-bench
// prints (experiment X19, default seed) row by row: every tier leaves
// the honest survivors finishing their round, only the framer is
// fined, the eviction set is exactly the corroboration rule's, and the
// rows the notes call bit-identical to the clean bus really are.
func TestAdversaryBenchMeetsTarget(t *testing.T) {
	e, ok := experiments.ByID("X19")
	if !ok {
		t.Fatal("X19 not registered")
	}
	res, err := e.Run(42)
	if err != nil {
		t.Fatal(err)
	}
	const m = 6
	victim := fmt.Sprintf("[%s]", adversarytest.ProcID(m/2))
	framer := fmt.Sprintf("[%s]", adversarytest.ProcID(0))
	want := []struct{ evicted, fined, payments string }{
		{"—", "—", "bit-identical"},    // clean bus
		{"—", "—", "bit-identical"},    // drop below the threshold: bid relayed
		{victim, "—", "reduced pool"},  // drop at the threshold: victim evicted
		{"—", framer, "bit-identical"}, // framing: rival keeps its seat, framer fined
		{victim, "—", "reduced pool"},  // crash in Processing Load
		{victim, "—", "reduced pool"},  // crash + referee failover
	}
	rows := res.Table.Rows
	if len(rows) != len(want) {
		t.Fatalf("X19 has %d rows, want %d:\n%s", len(rows), len(want), res.Table)
	}
	for i, w := range want {
		row := rows[i]
		if row[1] != "true" {
			t.Errorf("%s: honest survivors did not finish", row[0])
		}
		if row[2] != w.evicted {
			t.Errorf("%s: evicted %s, want %s", row[0], row[2], w.evicted)
		}
		if row[3] != w.fined {
			t.Errorf("%s: fined %s, want %s", row[0], row[3], w.fined)
		}
		if row[4] != w.payments {
			t.Errorf("%s: payments vs clean %q, want %q", row[0], row[4], w.payments)
		}
	}
}

package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dlsbl/internal/dlt"
	"dlsbl/internal/protocol"
	"dlsbl/internal/sig"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 31 {
		t.Fatalf("registry has %d experiments, want 31 (E1…E12 + X1…X19)", len(all))
	}
	for k := 0; k < 12; k++ {
		want := "E" + strconv.Itoa(k+1)
		if all[k].ID != want {
			t.Errorf("position %d: id %s, want %s", k, all[k].ID, want)
		}
	}
	for k := 0; k < 19; k++ {
		want := "X" + strconv.Itoa(k+1)
		if all[12+k].ID != want {
			t.Errorf("position %d: id %s, want %s", 12+k, all[12+k].ID, want)
		}
	}
	if _, ok := ByID("E6"); !ok {
		t.Error("ByID(E6) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("phantom experiment found")
	}
}

func TestX1SortedOrderOptimal(t *testing.T) {
	e, _ := ByID("X1")
	res, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Notes, "0 mismatches") {
		t.Errorf("X1 sequencing theorem violated: %s", res.Notes)
	}
}

func TestX3OverpaymentDecaysWithM(t *testing.T) {
	e, _ := ByID("X3")
	res, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	// Within each network block, the mean overpayment ratio at m=2 must
	// exceed the one at m=32.
	byNet := map[string][]float64{}
	for _, row := range res.Table.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < 1 {
			t.Errorf("overpayment ratio %v < 1 (user pays less than cost?)", v)
		}
		byNet[row[0]] = append(byNet[row[0]], v)
	}
	for net, ratios := range byNet {
		if ratios[0] <= ratios[len(ratios)-1] {
			t.Errorf("%s: overpayment did not decay with m: %v", net, ratios)
		}
	}
}

// TestAllExperimentsRun executes every experiment once and checks the
// shape assertions encoded in their notes.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(42)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Errorf("result id %s, want %s", res.ID, e.ID)
			}
			if len(res.Table.Columns) == 0 || len(res.Table.Rows) == 0 {
				t.Errorf("%s produced an empty table", e.ID)
			}
			s := res.String()
			if !strings.Contains(s, e.ID) {
				t.Errorf("%s rendering missing id", e.ID)
			}
		})
	}
}

func TestFigureExperimentsCarryDiagrams(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		res, err := e.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Figure == "" {
			t.Errorf("%s has no figure", id)
		}
		if !strings.Contains(res.Figure, "legend:") {
			t.Errorf("%s figure missing legend", id)
		}
		if !strings.Contains(res.Notes, "spread") {
			t.Errorf("%s notes missing the Theorem 2.1 check", id)
		}
	}
}

func TestE6TruthfulPeak(t *testing.T) {
	e, _ := ByID("E6")
	res, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Notes, "0 violations") {
		t.Errorf("E6 found strategyproofness violations: %s", res.Notes)
	}
	// The ratio-1 row must read 1.0000 in every network column.
	for _, row := range res.Table.Rows {
		if row[0] == "1.00" {
			for _, cell := range row[1:] {
				if cell != "1.0000" {
					t.Errorf("truthful row not normalized to 1: %v", row)
				}
			}
		}
	}
}

func TestE7NoLosses(t *testing.T) {
	e, _ := ByID("E7")
	res, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Notes, "0 negative-utility cases") {
		t.Errorf("E7 found losses: %s", res.Notes)
	}
}

func TestE8NoProfitableDeviation(t *testing.T) {
	e, _ := ByID("E8")
	res, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Notes, "0 profitable deviations") {
		t.Errorf("E8 found profitable deviations: %s", res.Notes)
	}
}

func TestE9NoWrongfulFines(t *testing.T) {
	e, _ := ByID("E9")
	res, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Notes, "0 wrongful outcomes") {
		t.Errorf("E9 found wrongful fines: %s", res.Notes)
	}
}

func TestE10QuadraticExponent(t *testing.T) {
	e, _ := ByID("E10")
	res, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	// The exponent is embedded in the notes as m^<p>; parse it.
	idx := strings.Index(res.Notes, "m^")
	if idx < 0 {
		t.Fatalf("E10 notes missing exponent: %s", res.Notes)
	}
	rest := res.Notes[idx+2:]
	end := strings.IndexAny(rest, " (")
	p, err := strconv.ParseFloat(rest[:end], 64)
	if err != nil {
		t.Fatalf("cannot parse exponent from %q", rest)
	}
	if p < 1.7 || p > 2.1 {
		t.Errorf("communication exponent %v not ≈ 2", p)
	}
}

func TestE12AblationShape(t *testing.T) {
	e, _ := ByID("E12")
	res, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Notes, "strictly decreasing in slack: true") {
		t.Errorf("E12 verified curve not decreasing: %s", res.Notes)
	}
	if !strings.Contains(res.Notes, "flat (no incentive to run at full speed): true") {
		t.Errorf("E12 unverified curve not flat: %s", res.Notes)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := Table{Columns: []string{"a", "b"}}
	tbl.AddRow("1", `has,comma`)
	tbl.AddRow(`has"quote`, "plain")
	csv := tbl.CSV()
	want := "a,b\n1,\"has,comma\"\n\"has\"\"quote\",plain\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
	res := Result{ID: "E1", Title: "t", Notes: "multi\nline", Table: tbl}
	out := res.CSV()
	if !strings.Contains(out, "# E1: t") || !strings.Contains(out, "# notes: multi line") {
		t.Errorf("result CSV headers missing:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Columns: []string{"a", "long-column"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	s := tbl.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("missing separator: %q", lines[1])
	}
	if (Table{}).String() != "" {
		t.Error("empty table rendered non-empty")
	}
}

// TestX16ParallelDeterministic pins the parallel fault sweep's contract:
// the worker pool may execute the (p, trial) cells in any interleaving,
// but the aggregated table — row order, float accumulation, every cell —
// must be bit-identical run to run (and therefore identical to the
// sequential sweep it replaced).
func TestX16ParallelDeterministic(t *testing.T) {
	x16, ok := ByID("X16")
	if !ok {
		t.Fatal("X16 not registered")
	}
	first, err := x16.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	for rerun := 0; rerun < 2; rerun++ {
		again, err := x16.Run(7)
		if err != nil {
			t.Fatal(err)
		}
		if first.Table.String() != again.Table.String() {
			t.Fatalf("X16 table not deterministic across parallel runs:\n--- first\n%s\n--- rerun\n%s",
				first.Table.String(), again.Table.String())
		}
	}
}

// TestWarmKeyringParity pins the harness-wide keyring (expKeys) as pure
// overhead removal: the same config run cold (fresh keys) and warm
// (cached keys) must produce bit-identical economics, because bids,
// allocations, meters and ledger flows never look at the key bytes.
func TestWarmKeyringParity(t *testing.T) {
	cfg := func(keys *sig.Keyring) protocol.Config {
		return protocol.Config{
			Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 1.5, 2, 2.5},
			Seed: 11, Keys: keys,
		}
	}
	cold, err := protocol.Run(cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := protocol.Run(cfg(expKeys)) // first warm run also warms the ring
	if err != nil {
		t.Fatal(err)
	}
	rewarm, err := protocol.Run(cfg(expKeys))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]float64{"warm": warm.Payments, "rewarm": rewarm.Payments} {
		if !reflect.DeepEqual(got, cold.Payments) {
			t.Errorf("%s payments = %v, cold run got %v", name, got, cold.Payments)
		}
	}
	if !reflect.DeepEqual(warm.Utilities, cold.Utilities) || !reflect.DeepEqual(rewarm.Utilities, cold.Utilities) {
		t.Errorf("utilities diverge: cold %v warm %v rewarm %v", cold.Utilities, warm.Utilities, rewarm.Utilities)
	}
	if !reflect.DeepEqual(warm.Alloc, cold.Alloc) || warm.Makespan != cold.Makespan {
		t.Errorf("schedule diverges: cold alloc %v warm %v", cold.Alloc, warm.Alloc)
	}
}

// TestX18MeetsTarget pins X18's throughput claim: on the default m=16
// pool, every fully pipelined cell (R=4) at batch depth D>=4 — the
// packed rows and the live-protocol replay of D=4, R=4 — reaches at
// least 1.3x the FIFO runner's throughput.
func TestX18MeetsTarget(t *testing.T) {
	e, ok := ByID("X18")
	if !ok {
		t.Fatal("X18 not registered")
	}
	res, err := e.Run(42)
	if err != nil {
		t.Fatal(err)
	}
	var packed, live int
	for _, row := range res.Table.Rows {
		d, errD := strconv.Atoi(row[0])
		r, errR := strconv.Atoi(row[1])
		s, errS := strconv.ParseFloat(strings.TrimSpace(row[5]), 64)
		if errD != nil || errR != nil || errS != nil {
			t.Fatalf("unparsable X18 row %q", row)
		}
		if d < 4 || r != 4 {
			continue
		}
		if strings.Contains(row[2], "live") {
			live++
		} else {
			packed++
		}
		if s < 1.3 {
			t.Errorf("X18 D=%d R=%d %s: speedup %.3f below the 1.3x target", d, r, row[2], s)
		}
	}
	if packed != 2 || live != 1 {
		t.Fatalf("X18 has %d packed and %d live D>=4, R=4 rows, want 2 and 1", packed, live)
	}
}

// TestX17AmortizationShape pins X17's two claims: amortization never
// moves a payment, and the reuse-round traffic is Θ(m) while the full
// round stays Θ(m²).
func TestX17AmortizationShape(t *testing.T) {
	e, ok := ByID("X17")
	if !ok {
		t.Fatal("X17 not registered")
	}
	res, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Notes, "0 payment mismatches") {
		t.Errorf("X17 amortization changed payments: %s", res.Notes)
	}
	// Parse the two exponents out of "∝ m^<p> (R²=…)".
	var exps []float64
	rest := res.Notes
	for {
		i := strings.Index(rest, "m^")
		if i < 0 {
			break
		}
		rest = rest[i+2:]
		end := strings.IndexAny(rest, " (")
		p, err := strconv.ParseFloat(rest[:end], 64)
		if err != nil {
			t.Fatalf("cannot parse exponent from %q", rest)
		}
		exps = append(exps, p)
	}
	if len(exps) != 2 {
		t.Fatalf("X17 notes carry %d exponents, want 2: %s", len(exps), res.Notes)
	}
	if exps[0] < 1.7 || exps[0] > 2.2 {
		t.Errorf("full-round exponent %v not ≈ 2", exps[0])
	}
	if exps[1] < 0.8 || exps[1] > 1.3 {
		t.Errorf("reuse-round exponent %v not ≈ 1", exps[1])
	}
	if exps[0]-exps[1] < 0.5 {
		t.Errorf("amortization did not drop the traffic order: full m^%.2f vs reuse m^%.2f", exps[0], exps[1])
	}
}

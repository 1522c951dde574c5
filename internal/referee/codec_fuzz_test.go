package referee

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

	"dlsbl/internal/sig"
)

// FuzzPayloadCodec differentially fuzzes the binary codec against the
// JSON codec: for arbitrary payload fields, both encodings must decode
// back to the same value (bit-exact floats included), and arbitrary bytes
// fed to the binary decoder must error or decode — never panic, never
// round-trip to different bytes.
func FuzzPayloadCodec(f *testing.F) {
	f.Add("P1", 1.5, "s01:r3", []byte(nil))
	f.Add("", 0.0, "", []byte{0xD1, 1, 'b'})
	f.Add("P2", math.Inf(1), "r", []byte{0xD1, 1, 'p', 0xFF, 0xFF})
	f.Add("P3", -0.5, "s01:r7", LoadPaymentPayload{Proc: "P3", Round: "s01:r7", First: 2,
		Q: [][]float64{{1, 2.5}, {0.125, -3}}}.AppendBinary(nil))
	f.Add("P4", 2.0, "s01:r8", []byte{0xD1, 1, 'l', 2, 'P', '4', 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, proc string, bid float64, round string, raw []byte) {
		// NaN breaks value equality (and encoding/json rejects it), so
		// canonicalize while keeping every other bit pattern, ±Inf
		// included... which json also rejects; the binary codec handles
		// both, so compare those arms by bits instead of via JSON.
		bids := BidPayload{Proc: proc, Bid: bid, Round: round}
		enc := bids.AppendBinary(nil)
		var got BidPayload
		if err := got.DecodeBinary(enc); err != nil {
			t.Fatalf("self-encoded bid failed to decode: %v", err)
		}
		if got.Proc != bids.Proc || got.Round != bids.Round ||
			math.Float64bits(got.Bid) != math.Float64bits(bids.Bid) {
			t.Fatalf("binary round trip: got %+v, want %+v", got, bids)
		}

		pay := PaymentPayload{Proc: proc, Q: []float64{bid, -bid, 0.25}, Round: round}
		pEnc := pay.AppendBinary(nil)
		var gotPay PaymentPayload
		if err := gotPay.DecodeBinary(pEnc); err != nil {
			t.Fatalf("self-encoded payment failed to decode: %v", err)
		}
		for i := range pay.Q {
			if math.Float64bits(gotPay.Q[i]) != math.Float64bits(pay.Q[i]) {
				t.Fatalf("payment q[%d]: %x != %x", i, gotPay.Q[i], pay.Q[i])
			}
		}

		load := LoadPaymentPayload{Proc: proc, Round: round, First: 3, Q: [][]float64{{bid, -bid}, {0.25}}}
		lEnc := load.AppendBinary(nil)
		var gotLoad LoadPaymentPayload
		if err := gotLoad.DecodeBinary(lEnc); err != nil {
			t.Fatalf("self-encoded load payment failed to decode: %v", err)
		}
		if gotLoad.Proc != load.Proc || gotLoad.Round != load.Round || gotLoad.First != load.First || len(gotLoad.Q) != len(load.Q) {
			t.Fatalf("load payment round trip: got %+v, want %+v", gotLoad, load)
		}
		for k := range load.Q {
			if len(gotLoad.Q[k]) != len(load.Q[k]) {
				t.Fatalf("load payment vector %d: %v, want %v", k, gotLoad.Q[k], load.Q[k])
			}
			for i := range load.Q[k] {
				if math.Float64bits(gotLoad.Q[k][i]) != math.Float64bits(load.Q[k][i]) {
					t.Fatalf("load payment q[%d][%d]: %x != %x", k, i, gotLoad.Q[k][i], load.Q[k][i])
				}
			}
		}

		// JSON agreement arm, for values JSON can carry at all: json
		// rejects NaN/±Inf and rewrites invalid UTF-8 to U+FFFD, while
		// the binary codec preserves every bit — so compare only where
		// JSON is lossless.
		if !math.IsNaN(bid) && !math.IsInf(bid, 0) &&
			utf8.ValidString(proc) && utf8.ValidString(round) {
			jb, err := json.Marshal(bids)
			if err != nil {
				t.Fatalf("json marshal: %v", err)
			}
			var viaJSON BidPayload
			if err := json.Unmarshal(jb, &viaJSON); err != nil {
				t.Fatalf("json unmarshal: %v", err)
			}
			if viaJSON != got {
				t.Fatalf("codecs disagree: json %+v, binary %+v", viaJSON, got)
			}
			lb, err := json.Marshal(load)
			if err != nil {
				t.Fatalf("json marshal: %v", err)
			}
			var loadViaJSON LoadPaymentPayload
			if err := json.Unmarshal(lb, &loadViaJSON); err != nil {
				t.Fatalf("json unmarshal: %v", err)
			}
			if !reflect.DeepEqual(loadViaJSON, gotLoad) {
				t.Fatalf("codecs disagree on the load payment: json %+v, binary %+v", loadViaJSON, gotLoad)
			}
		}

		// Hostile-input arm: arbitrary bytes must decode or error, and a
		// successful decode must re-encode to the identical bytes (the
		// codec admits exactly one encoding per value).
		var hostile BidPayload
		if err := hostile.DecodeBinary(raw); err == nil {
			if re := hostile.AppendBinary(nil); string(re) != string(raw) {
				t.Fatalf("non-canonical encoding accepted: %x re-encodes to %x", raw, re)
			}
		}
		var hostileLoad LoadPaymentPayload
		fullErr := hostileLoad.DecodeBinary(raw)
		if fullErr == nil {
			if re := hostileLoad.AppendBinary(nil); string(re) != string(raw) {
				t.Fatalf("non-canonical load payment accepted: %x re-encodes to %x", raw, re)
			}
		}
		// The referee's one-installment view accepts exactly what the full
		// decoder accepts and reads the same vector.
		view := loadPaymentAt{k: 2}
		if viewErr := view.DecodeBinary(raw); (viewErr == nil) != (fullErr == nil) {
			t.Fatalf("view decode error %v, full decode error %v", viewErr, fullErr)
		} else if viewErr == nil {
			if i := 2 - view.First; i >= 0 && i < len(view.Q) && !reflect.DeepEqual(view.Q[i], hostileLoad.Q[i]) {
				t.Fatalf("view reads installment 2 as %v, full decode as %v", view.Q[i], hostileLoad.Q[i])
			}
		}
		var hostileVec BidVectorPayload
		_ = hostileVec.DecodeBinary(raw)
		var hostileMeters MetersPayload
		_ = hostileMeters.DecodeBinary(raw)
	})
}

var _ = sig.ErrBinaryPayload // keep the import honest if arms change

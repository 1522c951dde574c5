package sig

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// testEnv seals a bid-shaped JSON payload under a fresh deterministic key
// registered with reg.
func testEnv(t *testing.T, reg *Registry, id string, seed int64, payload string) (*KeyPair, Envelope) {
	t.Helper()
	k, err := GenerateKeyPair(id, DeterministicSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(id, k.Public); err != nil {
		t.Fatal(err)
	}
	env, err := sealPayload(k, "dls/bid", []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return k, env
}

// TestRegistryPublicKeyReturnsCopy is the regression test for the PKI
// aliasing bug: PublicKey must hand out a copy, so a caller mutating the
// returned slice cannot silently corrupt the registered key and break (or
// forge) later verifications.
func TestRegistryPublicKeyReturnsCopy(t *testing.T) {
	reg := NewRegistry()
	_, env := testEnv(t, reg, "P1", 1, `{"proc":"P1","bid":1.5}`)

	pub, ok := reg.PublicKey("P1")
	if !ok {
		t.Fatal("P1 not registered")
	}
	for i := range pub {
		pub[i] ^= 0xFF // a hostile caller scribbles over its copy
	}
	if err := env.Verify(reg); err != nil {
		t.Fatalf("verification failed after caller mutated its PublicKey copy: %v", err)
	}
	again, _ := reg.PublicKey("P1")
	for i := range again {
		if again[i] != pub[i]^0xFF {
			t.Fatalf("byte %d: registry key changed under the caller's scribble", i)
		}
	}
}

// TestVerifyMemoSoundness checks the memo's safety contract: a hit is
// possible only for a byte-identical envelope that already verified, any
// byte change falls back to (failing) full verification, and failures are
// never memoized.
func TestVerifyMemoSoundness(t *testing.T) {
	reg := NewRegistry()
	_, env := testEnv(t, reg, "P1", 1, `{"proc":"P1","bid":1.5}`)
	memo := NewVerifyMemo()
	bv := NewBatchVerifier(reg, memo)

	if err := bv.Verify(&env); err != nil {
		t.Fatal(err)
	}
	if err := bv.Verify(&env); err != nil {
		t.Fatal(err)
	}
	if st := bv.Stats(); st.Verified != 1 || st.MemoHits != 1 {
		t.Fatalf("stats = %+v, want 1 verified and 1 memo hit", st)
	}

	// Any byte change misses the memo and fails the full verification —
	// a memoized original must not launder a tampered copy.
	tampered := env
	tampered.Payload = append([]byte(nil), env.Payload...)
	tampered.Payload[len(tampered.Payload)-2] ^= 1
	if err := bv.Verify(&tampered); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered copy of memoized envelope: err = %v, want ErrBadSignature", err)
	}
	// The failure itself must not be memoized: it keeps failing.
	if err := bv.Verify(&tampered); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered copy on retry: err = %v, want ErrBadSignature", err)
	}
	if ms := memo.Stats(); ms.Size != 1 {
		t.Fatalf("memo size = %d, want 1 (failures never stored)", ms.Size)
	}
}

// TestDisabledVerifyMemo checks the explicit opt-out: every Verify fully
// verifies, nothing is stored, and Enabled reports false (nil memos too).
func TestDisabledVerifyMemo(t *testing.T) {
	reg := NewRegistry()
	_, env := testEnv(t, reg, "P1", 1, `{"proc":"P1","bid":1.5}`)
	memo := DisabledVerifyMemo()
	if memo.Enabled() {
		t.Fatal("DisabledVerifyMemo().Enabled() = true")
	}
	if (*VerifyMemo)(nil).Enabled() {
		t.Fatal("nil memo reports Enabled")
	}
	bv := NewBatchVerifier(reg, memo)
	for i := 0; i < 3; i++ {
		if err := bv.Verify(&env); err != nil {
			t.Fatal(err)
		}
	}
	if st := bv.Stats(); st.Verified != 3 || st.MemoHits != 0 {
		t.Fatalf("stats = %+v, want 3 full verifications and no hits", st)
	}
}

// TestVerifyEach exercises the batch path: index-aligned errors for a
// mixed profile (valid, unknown sender, bad signature), intra-batch
// duplicate dedup, and memo warm-up across calls.
func TestVerifyEach(t *testing.T) {
	reg := NewRegistry()
	envs := make([]Envelope, 0, 6)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("P%d", i+1)
		_, env := testEnv(t, reg, id, int64(i+1), fmt.Sprintf(`{"proc":%q,"bid":%d.5}`, id, i+1))
		envs = append(envs, env)
	}
	envs = append(envs, envs[0]) // intra-batch duplicate of P1's bid
	bad := envs[1]
	bad.Payload = append([]byte(nil), bad.Payload...)
	bad.Payload[0] ^= 1
	envs = append(envs, bad)
	envs = append(envs, Envelope{Sender: "P9", Kind: "dls/bid"})

	bv := NewBatchVerifier(reg, NewVerifyMemo())
	errs := bv.VerifyEach(envs)
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Errorf("envs[%d]: %v, want nil", i, errs[i])
		}
	}
	if !errors.Is(errs[4], ErrBadSignature) {
		t.Errorf("tampered entry: %v, want ErrBadSignature", errs[4])
	}
	if !errors.Is(errs[5], ErrUnknownSender) {
		t.Errorf("unknown sender: %v, want ErrUnknownSender", errs[5])
	}
	st := bv.Stats()
	if st.Verified != 3 {
		t.Errorf("verified = %d, want 3 (duplicate shares the first copy's verdict)", st.Verified)
	}
	if st.MemoHits != 1 {
		t.Errorf("memo hits = %d, want 1 (the intra-batch duplicate)", st.MemoHits)
	}

	// Second pass over the valid prefix: everything is memoized now.
	if err := bv.VerifyAll(envs[:4]); err != nil {
		t.Fatal(err)
	}
	if st := bv.Stats(); st.Verified != 3 {
		t.Errorf("verified after warm pass = %d, want 3 (all hits)", st.Verified)
	}
}

// TestVerifyEachWorkers pins that the worker fan-out returns the same
// verdicts as the inline path for a larger profile, across GOMAXPROCS
// settings (one worker runs inline, more fan out).
func TestVerifyEachWorkers(t *testing.T) {
	reg := NewRegistry()
	var envs []Envelope
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("P%d", i+1)
		_, env := testEnv(t, reg, id, int64(i+1), fmt.Sprintf(`{"proc":%q}`, id))
		envs = append(envs, env)
	}
	envs[7].Payload = append([]byte(nil), envs[7].Payload...)
	envs[7].Payload[0] ^= 1

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		bv := NewBatchVerifier(reg, nil)
		errs := bv.VerifyEach(envs)
		for i, err := range errs {
			if i == 7 {
				if !errors.Is(err, ErrBadSignature) {
					t.Errorf("GOMAXPROCS=%d envs[7]: %v, want ErrBadSignature", procs, err)
				}
			} else if err != nil {
				t.Errorf("GOMAXPROCS=%d envs[%d]: %v", procs, i, err)
			}
		}
	}
}

// TestSealEachMatchesSerial: the parallel batch seal yields exactly the
// bytes serial SealCodec calls do, in index order, under both codecs and
// whether the fan-out runs inline or across workers.
func TestSealEachMatchesSerial(t *testing.T) {
	const n = 9
	keys := make([]*KeyPair, n)
	payloads := make([]any, n)
	for i := range keys {
		k, err := GenerateKeyPair(fmt.Sprintf("P%d", i+1), DeterministicSource(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
		payloads[i] = binPayload{Name: k.ID, X: float64(i) + 0.5, Xs: []float64{1, float64(i)}}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		want := make([]Envelope, n)
		for i := range keys {
			env, err := SealCodec(keys[i], "dls/payment", payloads[i], codec)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = env
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := SealEach(keys, "dls/payment", payloads, codec)
			if err != nil {
				t.Fatalf("%v GOMAXPROCS=%d: %v", codec, procs, err)
			}
			if len(got) != n {
				t.Fatalf("%v GOMAXPROCS=%d: %d envelopes, want %d", codec, procs, len(got), n)
			}
			for i := range got {
				if !got[i].Equal(want[i]) || string(got[i].Signature) != string(want[i].Signature) {
					t.Errorf("%v GOMAXPROCS=%d: envelope %d differs from serial SealCodec", codec, procs, i)
				}
			}
		}
	}
}

// TestSealEachFirstError: a failing entry fails the whole batch, and with
// several failures the one reported is the first in index order,
// regardless of which worker finished first.
func TestSealEachFirstError(t *testing.T) {
	keys := make([]*KeyPair, 6)
	payloads := make([]any, len(keys))
	for i := range keys {
		k, err := GenerateKeyPair(fmt.Sprintf("P%d", i+1), DeterministicSource(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
		payloads[i] = map[string]float64{"bid": float64(i)}
	}
	unmarshalable := map[string]float64{"bid": math.NaN()}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		// nil key at 2, unmarshalable payload at 4: the nil key wins.
		k := append([]*KeyPair(nil), keys...)
		p := append([]any(nil), payloads...)
		k[2], p[4] = nil, unmarshalable
		if _, err := SealEach(k, "dls/bid", p, CodecJSON); err == nil || !strings.Contains(err.Error(), "private key") {
			t.Errorf("GOMAXPROCS=%d nil key first: err = %v, want the private-key error", procs, err)
		}
		// Swapped: the marshaling failure at 1 precedes the nil key at 5.
		k = append([]*KeyPair(nil), keys...)
		p = append([]any(nil), payloads...)
		p[1], k[5] = unmarshalable, nil
		if _, err := SealEach(k, "dls/bid", p, CodecJSON); err == nil || !strings.Contains(err.Error(), "marshaling") {
			t.Errorf("GOMAXPROCS=%d marshal error first: err = %v, want the marshaling error", procs, err)
		}
	}
	if _, err := SealEach(keys, "dls/bid", payloads[:3], CodecJSON); err == nil {
		t.Error("SealEach accepted 6 keys for 3 payloads")
	}
}

// fillerDigest is a distinct synthetic memo key for generation tests.
func fillerDigest(i int) [sha256.Size]byte {
	var d [sha256.Size]byte
	binary.LittleEndian.PutUint64(d[:], uint64(i)+1)
	d[31] = 0xF1
	return d
}

// TestVerifyMemoGenerations pins the two-generation bound: an envelope
// re-verified at least once per generation (a pool's cached bids) stays
// memoized across many rotations, single-use digests (fresh payment
// vectors) age out, and the memo never holds more than two generations.
func TestVerifyMemoGenerations(t *testing.T) {
	reg := NewRegistry()
	_, hot := testEnv(t, reg, "P1", 1, `{"proc":"P1","bid":1.5}`)
	memo := NewVerifyMemo()
	bv := NewBatchVerifier(reg, memo)
	if err := bv.Verify(&hot); err != nil {
		t.Fatal(err)
	}
	const rotations = 20
	filler := 0
	for r := 0; r < 2*rotations; r++ {
		// Half a generation of single-use digests between re-verifications.
		for k := 0; k < memoGeneration/2; k++ {
			memo.store(fillerDigest(filler))
			filler++
			if n := memo.Stats().Size; n > 2*memoGeneration {
				t.Fatalf("memo holds %d digests, bound is %d", n, 2*memoGeneration)
			}
		}
		if err := bv.Verify(&hot); err != nil {
			t.Fatal(err)
		}
	}
	if st := bv.Stats(); st.Verified != 1 || st.MemoHits != 2*rotations {
		t.Fatalf("hot envelope: stats = %+v, want 1 full verification and %d hits", st, 2*rotations)
	}
	if memo.contains(fillerDigest(0)) {
		t.Error("first single-use digest survived 20 rotations")
	}
	if !memo.contains(fillerDigest(filler - 1)) {
		t.Error("latest single-use digest was not memoized")
	}

	// A failed verification is never stored, through either entry point.
	tampered := hot
	tampered.Signature = append([]byte(nil), hot.Signature...)
	tampered.Signature[0] ^= 1
	before := memo.Stats().Size
	for i := 0; i < 2; i++ {
		if err := bv.Verify(&tampered); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("tampered Verify: %v, want ErrBadSignature", err)
		}
		if errs := bv.VerifyEach([]Envelope{tampered}); !errors.Is(errs[0], ErrBadSignature) {
			t.Fatalf("tampered VerifyEach: %v, want ErrBadSignature", errs[0])
		}
	}
	if after := memo.Stats().Size; after != before {
		t.Errorf("memo grew from %d to %d on failed verifications", before, after)
	}
}

// TestVerifyMemoConcurrent shares one memo between concurrent verifiers
// (as a pool's runs and a run's fan-out do) while rotations happen: every
// verdict stays right, and -race sees no unsynchronized access.
func TestVerifyMemoConcurrent(t *testing.T) {
	reg := NewRegistry()
	var envs []Envelope
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("P%d", i+1)
		_, env := testEnv(t, reg, id, int64(i+1), fmt.Sprintf(`{"proc":%q}`, id))
		envs = append(envs, env)
	}
	bad := envs[3]
	bad.Payload = append([]byte(nil), bad.Payload...)
	bad.Payload[0] ^= 1
	envs = append(envs, bad)

	memo := NewVerifyMemo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			bv := NewBatchVerifier(reg, memo)
			for r := 0; r < 20; r++ {
				for k := 0; k < memoGeneration/8; k++ {
					memo.store(fillerDigest(g<<20 | r<<12 | k))
				}
				for i, err := range bv.VerifyEach(envs) {
					if (i == len(envs)-1) != (err != nil) {
						t.Errorf("goroutine %d round %d envs[%d]: %v", g, r, i, err)
					}
				}
				if err := bv.Verify(&envs[r%8]); err != nil {
					t.Errorf("goroutine %d round %d Verify: %v", g, r, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := memo.Stats().Size; n > 2*memoGeneration {
		t.Errorf("memo holds %d digests, bound is %d", n, 2*memoGeneration)
	}
}

// TestHotPathAllocs is the CI guard for the envelope hot path: sealing
// into a warm envelope, a memo-hit verification and the pooled
// signing-byte assembly must all stay at 0 allocs/op, so an accidental
// per-message allocation fails the build instead of shipping as a perf
// regression. (The payload codec's 0 allocs/op guard lives next to the
// payload types, in internal/referee.)
func TestHotPathAllocs(t *testing.T) {
	reg := NewRegistry()
	k, env := testEnv(t, reg, "P1", 1, `{"proc":"P1","bid":1.5}`)
	payload := append([]byte(nil), env.Payload...)

	var warm Envelope
	if err := SealInto(k, "dls/bid", payload, &warm); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := SealInto(k, "dls/bid", payload, &warm); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SealInto into a warm envelope: %v allocs/op, want 0", n)
	}
	if err := warm.Verify(reg); err != nil {
		t.Fatalf("warm-sealed envelope does not verify: %v", err)
	}

	bv := NewBatchVerifier(reg, NewVerifyMemo())
	if err := bv.Verify(&env); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := bv.Verify(&env); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("memo-hit Verify: %v allocs/op, want 0", n)
	}

	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendSigningBytes(buf[:0], env.Kind, env.Sender, env.Payload)
	}); n != 0 {
		t.Errorf("appendSigningBytes into a warm buffer: %v allocs/op, want 0", n)
	}
}

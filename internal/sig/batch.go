// Batch signing and verification, and the verified-envelope memo.
//
// Ed25519 is the protocol's dominant per-round cost once keys are warm:
// every processor signs its bid and its payment vector, and every
// transport delivery, every cached bid and every referee re-open pays a
// verification. Two observations make most of it cheap. First, Ed25519
// verification is deterministic — for a fixed (public key, message,
// signature) triple the answer never changes — so a digest over exactly
// that triple memoizes the decision soundly: a memo hit is possible only
// for a byte-identical envelope that already verified under the same
// registered key, and any byte change (payload, signature, sender, kind,
// or a re-registered key) changes the digest and falls back to a full
// verification. Convictability is unchanged: nothing unverified is ever
// accepted. Second, the m envelopes of one phase are signed and verified
// independently, so SealEach and VerifyEach fan them out across
// GOMAXPROCS workers through one shared loop (fanOut). Ed25519 signing is
// deterministic too, so the fan-out changes no byte of any envelope.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// memoGeneration is the capacity of each of the memo's two generations.
// Digests hit once per generation (a pool's cached bids, re-verified every
// round) are carried forward indefinitely; single-use digests (each
// round's fresh payment vectors) age out after at most two generations,
// so the memo's footprint is bounded by 2·memoGeneration entries and the
// maps' storage is recycled instead of reallocated.
const memoGeneration = 1 << 12

// VerifyMemo remembers content digests of envelopes that have already
// passed Ed25519 verification. It is safe for concurrent use and is
// meant to live as long as its key material stays valid — a BidSession,
// a service pool. Only successful verifications are stored; failures are
// never memoized (a corrupted copy must keep failing, and an envelope
// that later verifies under a different registry entry has a different
// digest anyway).
//
// Digests live in two generations: a lookup checks the current one, then
// the previous one, moving a previous-generation hit into the current
// one; when the current generation fills up it becomes the previous one
// and an empty current generation starts.
type VerifyMemo struct {
	mu        sync.Mutex
	cur, prev map[[sha256.Size]byte]struct{}
	off       bool
	hits      atomic.Int64
	miss      atomic.Int64
}

// NewVerifyMemo returns an empty memo.
func NewVerifyMemo() *VerifyMemo {
	return &VerifyMemo{
		cur:  make(map[[sha256.Size]byte]struct{}),
		prev: make(map[[sha256.Size]byte]struct{}),
	}
}

// DisabledVerifyMemo returns a memo that never stores or hits — the
// explicit opt-out for callers (benchmarks, parity tests) that need the
// unmemoized verification path under an API that requires a memo.
func DisabledVerifyMemo() *VerifyMemo {
	return &VerifyMemo{off: true}
}

// enabled reports whether the memo participates at all.
func (m *VerifyMemo) enabled() bool { return m != nil && !m.off }

// Enabled reports whether the memo participates in verification — false
// for nil and for DisabledVerifyMemo. Callers use it to skip batch
// pre-passes whose only value is warming the memo.
func (m *VerifyMemo) Enabled() bool { return m.enabled() }

// contains reports whether the digest is memoized, counting the outcome.
// A hit in the previous generation moves the digest into the current one.
func (m *VerifyMemo) contains(d [sha256.Size]byte) bool {
	m.mu.Lock()
	_, ok := m.cur[d]
	if !ok {
		if _, ok = m.prev[d]; ok {
			delete(m.prev, d)
			m.put(d)
		}
	}
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.miss.Add(1)
	}
	return ok
}

// store memoizes a digest that just verified.
func (m *VerifyMemo) store(d [sha256.Size]byte) {
	m.mu.Lock()
	if _, ok := m.cur[d]; !ok {
		delete(m.prev, d)
		m.put(d)
	}
	m.mu.Unlock()
}

// put adds d to the current generation, rotating first when it is full:
// the previous generation is emptied and becomes the new current one, so
// the two maps' storage is reused rather than reallocated. The caller
// holds mu.
func (m *VerifyMemo) put(d [sha256.Size]byte) {
	if len(m.cur) >= memoGeneration {
		clear(m.prev)
		m.cur, m.prev = m.prev, m.cur
	}
	m.cur[d] = struct{}{}
}

// MemoStats are a memo's cumulative counters.
type MemoStats struct {
	// Hits counts verifications skipped because the digest was memoized.
	Hits int64
	// Misses counts digest lookups that fell through to full
	// verification.
	Misses int64
	// Size is the current number of memoized digests, at most
	// 2·4,096 (two generations).
	Size int
}

// Stats returns the memo's counters; the zero value for a nil or
// disabled memo.
func (m *VerifyMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	n := len(m.cur) + len(m.prev)
	m.mu.Unlock()
	return MemoStats{Hits: m.hits.Load(), Misses: m.miss.Load(), Size: n}
}

// envelopeDigest is the memo key: SHA-256 over the registered public key,
// the domain-separated signing bytes and the signature — exactly the
// triple Ed25519 verification decides on.
func envelopeDigest(pub ed25519.PublicKey, e *Envelope) [sha256.Size]byte {
	bp := sbPool.Get().(*[]byte)
	msg := append((*bp)[:0], pub...)
	msg = appendSigningBytes(msg, e.Kind, e.Sender, e.Payload)
	msg = append(msg, e.Signature...)
	d := sha256.Sum256(msg)
	*bp = msg[:0]
	sbPool.Put(bp)
	return d
}

// BatchStats count what one BatchVerifier did.
type BatchStats struct {
	// Verified counts full Ed25519 verifications performed.
	Verified int
	// MemoHits counts verifications skipped via the memo.
	MemoHits int
	// Batches counts VerifyEach/VerifyAll invocations that had at least
	// one non-memoized envelope to verify.
	Batches int
}

// BatchVerifier verifies envelopes against one registry, consulting a
// VerifyMemo first and fanning independent verifications out across
// GOMAXPROCS workers. It is NOT safe for concurrent use — each protocol
// run owns one — but the memo it consults may be shared across runs.
type BatchVerifier struct {
	reg   *Registry
	memo  *VerifyMemo
	stats BatchStats
}

// NewBatchVerifier creates a verifier over reg. memo may be nil (no
// memoization, every envelope fully verifies).
func NewBatchVerifier(reg *Registry, memo *VerifyMemo) *BatchVerifier {
	return &BatchVerifier{reg: reg, memo: memo}
}

// Memo returns the memo the verifier consults (nil when unmemoized).
func (b *BatchVerifier) Memo() *VerifyMemo { return b.memo }

// Stats returns the verifier's counters.
func (b *BatchVerifier) Stats() BatchStats { return b.stats }

// Verify checks one envelope, through the memo when enabled. The
// envelope is not retained.
func (b *BatchVerifier) Verify(e *Envelope) error {
	pub, ok := b.reg.lookup(e.Sender)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSender, e.Sender)
	}
	if !b.memo.enabled() {
		b.stats.Verified++
		return verifyWithKey(pub, e)
	}
	d := envelopeDigest(pub, e)
	if b.memo.contains(d) {
		b.stats.MemoHits++
		return nil
	}
	if err := verifyWithKey(pub, e); err != nil {
		return err
	}
	b.stats.Verified++
	b.memo.store(d)
	return nil
}

// Open verifies the envelope (memoized) and decodes its payload into v.
func (b *BatchVerifier) Open(e *Envelope, v any) error {
	if err := b.Verify(e); err != nil {
		return err
	}
	return decodePayload(e.Kind, e.Sender, e.Payload, v)
}

// IsEquivocation is sig.IsEquivocation through the memoized verifier:
// same sender and kind, different payloads, both correctly signed.
func (b *BatchVerifier) IsEquivocation(x, y Envelope) bool {
	if x.Sender != y.Sender || x.Kind != y.Kind {
		return false
	}
	if string(x.Payload) == string(y.Payload) {
		return false
	}
	return b.Verify(&x) == nil && b.Verify(&y) == nil
}

// batchJob is one envelope awaiting full verification after the memo
// pre-pass.
type batchJob struct {
	idx    int
	pub    ed25519.PublicKey
	digest [sha256.Size]byte
	memoed bool
}

// VerifyEach verifies every envelope and returns the per-envelope
// errors, index-aligned (nil entries verified). The memo pre-pass runs
// serially — hit/miss counts are deterministic for a given input — and
// only the misses fan out (fanOut). Duplicate misses within one call
// (bit-identical envelopes) verify once.
func (b *BatchVerifier) VerifyEach(envs []Envelope) []error {
	errs := make([]error, len(envs))
	var pending []batchJob
	memo := b.memo.enabled()
	// Serial memo pre-pass, deduplicating identical envelopes.
	firstOf := make(map[[sha256.Size]byte]int)
	for i := range envs {
		e := &envs[i]
		pub, ok := b.reg.lookup(e.Sender)
		if !ok {
			errs[i] = fmt.Errorf("%w: %q", ErrUnknownSender, e.Sender)
			continue
		}
		j := batchJob{idx: i, pub: pub}
		if memo {
			j.digest = envelopeDigest(pub, e)
			j.memoed = true
			if b.memo.contains(j.digest) {
				b.stats.MemoHits++
				continue
			}
			if first, dup := firstOf[j.digest]; dup {
				// Same digest pending earlier in this batch: share its
				// verdict instead of verifying twice.
				errs[i] = errDefer{first}
				continue
			}
			firstOf[j.digest] = i
		}
		pending = append(pending, j)
	}
	if len(pending) > 0 {
		b.stats.Batches++
		fanOut(len(pending), func(k int) {
			j := pending[k]
			errs[j.idx] = verifyWithKey(j.pub, &envs[j.idx])
		})
		// Serial post-pass: count, memoize successes, resolve deferrals.
		for _, j := range pending {
			if errs[j.idx] == nil {
				b.stats.Verified++
				if j.memoed {
					b.memo.store(j.digest)
				}
			}
		}
	}
	for i, err := range errs {
		if d, ok := err.(errDefer); ok {
			if errs[d.idx] == nil {
				errs[i] = nil
				b.stats.MemoHits++
			} else {
				errs[i] = errs[d.idx]
			}
		}
	}
	return errs
}

// errDefer marks an intra-batch duplicate awaiting the first copy's
// verdict.
type errDefer struct{ idx int }

// Error satisfies the error interface; the value is internal and never
// escapes VerifyAll.
func (e errDefer) Error() string { return "sig: deferred to duplicate envelope" }

// VerifyAll verifies a whole profile of envelopes in one pass and
// returns the first failure in index order (nil when all verified).
func (b *BatchVerifier) VerifyAll(envs []Envelope) error {
	for _, err := range b.VerifyEach(envs) {
		if err != nil {
			return err
		}
	}
	return nil
}

// SealEach seals payloads[i] under keys[i] with SealCodec for every i,
// fanning the independent signatures out across the same worker loop as
// VerifyEach. Ed25519 signing is deterministic, so the envelopes are
// byte-identical to serial SealCodec calls. They come back in index
// order; on failure the error reported is the first in index order.
func SealEach(keys []*KeyPair, kind string, payloads []any, c Codec) ([]Envelope, error) {
	if len(keys) != len(payloads) {
		return nil, fmt.Errorf("sig: SealEach got %d keys for %d payloads", len(keys), len(payloads))
	}
	envs := make([]Envelope, len(keys))
	errs := make([]error, len(keys))
	fanOut(len(keys), func(k int) {
		envs[k], errs[k] = SealCodec(keys[k], kind, payloads[k], c)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return envs, nil
}

// fanOut calls fn(k) for every k in [0, n) across min(n, GOMAXPROCS)
// goroutines that claim indices from a shared counter, running inline
// when one worker suffices. fn must be safe to call concurrently for
// distinct k; callers write results into index-aligned slices, so the
// outcome does not depend on scheduling.
func fanOut(n int, fn func(k int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}

package obs

import (
	"fmt"
	"math"
	"sync"
)

// Sentinel is a Tracer that watches a live event stream for violations
// of the mechanism's economic invariants — the properties every correct
// execution satisfies no matter how the agents behave, because deviants
// are convicted with evidence rather than allowed to bend the
// arithmetic. A violation therefore indicates a bug (or tampering), not
// an adversary, and the sentinel latches it: Violations keeps reporting
// until Reset, which is what lets a service surface the first bad round
// on /metrics and /healthz long after it happened.
//
// Checked invariants, per round:
//
//  1. Payment shape (Definition 3.1): each payment event's Q equals
//     C + B within floating-point tolerance.
//  2. Payment conservation: the round's invoice total billed to the
//     user equals the sum of the round's individual payments Q_i —
//     the user pays exactly what the processors receive.
//  3. Telescoping installments: a pipelined load's settled aggregate
//     equals the sum of its installment sub-rounds' invoices.
//  4. Witness-corroborated eviction: an eviction citing the
//     ⌈m/2⌉-witness rule must be preceded, in the same round, by at
//     least threshold distinct witness_report events against the
//     evicted party.
//  5. Conviction evidence: a conviction must be preceded, in the same
//     round, by at least one signed-evidence event (a payment or
//     witness-report submission the referee verified).
//
// Like every Tracer, a Sentinel only observes — it never feeds back
// into protocol decisions, and attaching one leaves payments and
// transcripts bit-identical (the nil-parity contract).
type Sentinel struct {
	mu         sync.Mutex
	violations []string

	rounds map[string]*sentinelRound
	order  []string // insertion order, for bounded pruning
}

// sentinelRound is the per-round working state.
type sentinelRound struct {
	paymentSum  float64 // Σ Q_i of payment events seen so far
	payments    int
	invoiceSum  float64 // Σ invoice totals (one per whole round, one per installment)
	invoices    int
	witnesses   map[string]map[string]bool // accused → distinct witnesses
	evidence    int
	convictions int
}

// sentinelMaxRounds bounds the per-round state a long-lived Sentinel
// retains; older rounds are forgotten FIFO. Violations stay latched
// regardless — only the working state is pruned. A service pool's
// sentinel sees one load at a time, and a pipelined load's installment
// rounds (at most protocol.MaxInstallments = 64) all receive their
// payment events when the load settles, so the window must hold one
// whole load; 256 rounds hold four.
const sentinelMaxRounds = 256

// NewSentinel returns an empty Sentinel ready to attach to a run (via
// Multi, next to whatever recorder the run already carries).
func NewSentinel() *Sentinel {
	return &Sentinel{rounds: make(map[string]*sentinelRound)}
}

// sentinelTol is the relative floating-point tolerance of the
// arithmetic checks: the payment terms are sums and differences of
// closed-form makespans, so anything beyond a few ulps of slack means a
// genuinely different number, not roundoff.
const sentinelTol = 1e-9

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= sentinelTol*(1+math.Abs(a)+math.Abs(b))
}

// round returns (creating if needed) the working state for a round ID.
// Caller holds s.mu.
func (s *Sentinel) round(id string) *sentinelRound {
	if r, ok := s.rounds[id]; ok {
		return r
	}
	if len(s.order) >= sentinelMaxRounds {
		delete(s.rounds, s.order[0])
		s.order = s.order[1:]
	}
	r := &sentinelRound{witnesses: make(map[string]map[string]bool)}
	s.rounds[id] = r
	s.order = append(s.order, id)
	return r
}

// violate latches one violation. Caller holds s.mu.
func (s *Sentinel) violate(format string, args ...any) {
	s.violations = append(s.violations, fmt.Sprintf(format, args...))
}

// BeginPhase implements Tracer. The sentinel keys state by event round
// IDs, so spans carry no information it needs.
func (s *Sentinel) BeginPhase(name, round, epoch string) {}

// EndPhase implements Tracer.
func (s *Sentinel) EndPhase(name string) {}

// Event implements Tracer: it folds the event into the per-round state
// and checks whatever invariant the event completes.
func (s *Sentinel) Event(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case EvPayment:
		if len(e.Values) != 3 {
			s.violate("round %q: payment event for %s carries %d values, want [Q, C, B]", e.Round, e.From, len(e.Values))
			return
		}
		q, c, b := e.Values[0], e.Values[1], e.Values[2]
		if !closeEnough(q, c+b) {
			s.violate("round %q: payment shape broken for %s: Q=%.12g but C+B=%.12g (Definition 3.1)",
				e.Round, e.From, q, c+b)
		}
		r := s.round(e.Round)
		r.paymentSum += q
		r.payments++
	case EvInvoice:
		if len(e.Values) != 1 {
			s.violate("round %q: invoice event carries %d values, want [total]", e.Round, len(e.Values))
			return
		}
		r := s.round(e.Round)
		r.invoiceSum += e.Values[0]
		r.invoices++
		if r.payments > 0 && !closeEnough(e.Values[0], r.paymentSum) {
			s.violate("round %q: payment conservation broken: invoice bills %.12g, processors receive Σ=%.12g",
				e.Round, e.Values[0], r.paymentSum)
		}
		// One invoice closes one round's payments. Standalone runs all
		// share the empty round ID, so the payment accumulator must not
		// leak into the next run under a long-lived (pool) sentinel.
		r.paymentSum, r.payments = 0, 0
	case EvLoadSettled:
		if len(e.Values) != 1 {
			s.violate("round %q: load_settled event carries %d values, want [total]", e.Round, len(e.Values))
			return
		}
		// e.Round is the whole-load ID "<salt>:rN"; its installments ran
		// as "<salt>:rN.iK". Sum their invoices and demand telescoping.
		var sum float64
		var parts int
		prefix := e.Round + "."
		for id, r := range s.rounds {
			if len(id) > len(prefix) && id[:len(prefix)] == prefix {
				sum += r.invoiceSum
				parts++
			}
		}
		if parts > 0 && !closeEnough(e.Values[0], sum) {
			s.violate("round %q: installment payments do not telescope: load settled %.12g, %d installments invoiced Σ=%.12g",
				e.Round, e.Values[0], parts, sum)
		}
	case EvWitnessReport:
		r := s.round(e.Round)
		if r.witnesses[e.To] == nil {
			r.witnesses[e.To] = make(map[string]bool)
		}
		r.witnesses[e.To][e.From] = true
		r.evidence++ // a witness report is sealed and verified: evidence
	case EvEvidence:
		s.round(e.Round).evidence++
	case EvEviction:
		// Only the witness-corroboration rule implies prior reports;
		// wholesale failures, crash checkpoints and relay-time outages
		// carry other reasons and need none.
		var got, of, thresh int
		if n, _ := fmt.Sscanf(e.Detail, "unreachable: %d of %d witnesses corroborate (threshold %d)",
			&got, &of, &thresh); n == 3 {
			r := s.round(e.Round)
			if len(r.witnesses[e.From]) < thresh {
				s.violate("round %q: %s evicted citing %d corroborating witnesses (threshold %d) but only %d witness_report events preceded it",
					e.Round, e.From, got, thresh, len(r.witnesses[e.From]))
			}
		}
	case EvConviction:
		r := s.round(e.Round)
		r.convictions++
		if r.evidence == 0 {
			s.violate("round %q: %s convicted (%s) with no signed-evidence event preceding the verdict",
				e.Round, e.From, e.Detail)
		}
	}
}

// Violations returns the latched violation descriptions, oldest first
// (empty on a healthy stream).
func (s *Sentinel) Violations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.violations...)
}

// Ok reports whether the sentinel has latched no violation.
func (s *Sentinel) Ok() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.violations) == 0
}

// Reset clears latched violations and working state — the operator
// acknowledged the incident and wants a clean sentinel.
func (s *Sentinel) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.violations = nil
	s.rounds = make(map[string]*sentinelRound)
	s.order = nil
}

// A Sentinel is a Tracer.
var _ Tracer = (*Sentinel)(nil)

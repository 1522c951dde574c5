package protocol

import (
	"fmt"
	"strings"
)

// Round identifiers. Every session round is stamped with a salted ID the
// signed per-round artifacts and the referee's audit transcript carry:
//
//	<salt>:rN       — whole-load round N
//	<salt>:rN.iK    — installment K (1-based) of round N, a sub-round of
//	                  the pipelined scheduler (internal/pipeline)
//
// The salt is the session's deterministic identifier (sessionSalt) and
// never contains a colon; N and K are positive decimals with no leading
// zeros, so every reference has exactly one canonical spelling —
// ParseRoundRef accepts only that spelling and String reproduces it
// byte-for-byte (the round-trip the FuzzRoundRef target pins down).
// Distinct installments of one load therefore stamp distinct round IDs:
// a bid vector or witness report captured in sub-round rN.i2 and
// replayed in rN.i3 fails the round match like any stale-round replay.
// Payments bind one level up, to the load: a member signs one load
// payment envelope for all of rN's installments, stamped rN with the
// range of installments it covers, and the referee of rN.iK accepts it
// only when its round is rN and its range covers K. An envelope captured
// in load rN and replayed in rN+1 fails the round match; replaying it
// into another installment of rN commits the member to that
// installment's vector, which it signed anyway.

// RoundRef is a parsed session round identifier.
type RoundRef struct {
	// Salt is the session identifier the round belongs to (non-empty,
	// no ':').
	Salt string
	// Round is the 1-based session round number N.
	Round int
	// Installment is the 1-based installment number K for sub-rounds;
	// 0 for a whole-load round.
	Installment int
}

// String renders the canonical identifier.
func (r RoundRef) String() string {
	if r.Installment > 0 {
		return fmt.Sprintf("%s:r%d.i%d", r.Salt, r.Round, r.Installment)
	}
	return fmt.Sprintf("%s:r%d", r.Salt, r.Round)
}

// parseDecimal parses a positive decimal with no leading zeros (the only
// spelling String emits). Returns 0 on any other input.
func parseDecimal(s string) int {
	if s == "" || s[0] == '0' {
		return 0
	}
	n := 0
	for i := 0; i < len(s); i++ {
		d := s[i]
		if d < '0' || d > '9' {
			return 0
		}
		if n > (1<<31-1-9)/10 {
			return 0 // would overflow any plausible round counter
		}
		n = n*10 + int(d-'0')
	}
	return n
}

// ParseRoundRef parses a canonical round identifier. It accepts exactly
// the strings RoundRef.String produces: for every valid input,
// ParseRoundRef(s).String() == s.
func ParseRoundRef(s string) (RoundRef, error) {
	salt, rest, ok := strings.Cut(s, ":")
	if !ok || salt == "" || strings.Contains(rest, ":") {
		return RoundRef{}, fmt.Errorf("protocol: round id %q is not <salt>:rN[.iK]", s)
	}
	if len(rest) < 2 || rest[0] != 'r' {
		return RoundRef{}, fmt.Errorf("protocol: round id %q is not <salt>:rN[.iK]", s)
	}
	numPart, instPart, hasInst := strings.Cut(rest[1:], ".")
	ref := RoundRef{Salt: salt}
	if ref.Round = parseDecimal(numPart); ref.Round == 0 {
		return RoundRef{}, fmt.Errorf("protocol: round id %q has invalid round number", s)
	}
	if hasInst {
		if len(instPart) < 2 || instPart[0] != 'i' {
			return RoundRef{}, fmt.Errorf("protocol: round id %q has invalid installment suffix", s)
		}
		if ref.Installment = parseDecimal(instPart[1:]); ref.Installment == 0 {
			return RoundRef{}, fmt.Errorf("protocol: round id %q has invalid installment number", s)
		}
	}
	return ref, nil
}

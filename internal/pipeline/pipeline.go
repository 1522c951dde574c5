// Package pipeline is the deterministic scheduling layer between the
// economic mechanism (internal/protocol) and the service runners
// (internal/service). It lifts the simulation-only multi-round solver
// (dlt.MultiRound) into the live protocol in two steps:
//
//   - Installment rounds: RunLoad splits one load into R installments,
//     each served as a signed, session-salted sub-round ("<salt>:rN.iK")
//     from the BidSession's cached-bid fast path, so P_{i+1} receives
//     installment k while P_i computes installment k−1. Per-installment
//     payments scale by the installment's load fraction and telescope to
//     the single-round payment; each sub-round keeps its own hash-chained
//     referee transcript.
//
//   - Cross-job packing: Pack admits up to D jobs into one shared bus
//     schedule, interleaving their installments on the one-port bus while
//     distinct jobs' computations overlap on disjoint processor time. The
//     packed plan keeps every span tagged with its job, so per-job
//     schedules (and the per-job economics, which Pack never touches)
//     stay separable.
//
// Everything here is virtual-time scheduling policy: the money flow is
// decided entirely by the protocol sub-rounds, and the packer only
// arranges when the already-agreed transfers and computations happen.
package pipeline

import (
	"errors"
	"fmt"

	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/protocol"
)

// Load couples one job with its installment plan.
type Load struct {
	// Job is the load-specific protocol configuration (behaviors, seed,
	// faults, tracer), exactly as BidSession.Run takes it.
	Job protocol.JobConfig
	// Rounds is the number of installments R (>= 1). 1 serves the load as
	// a plain whole-load round, byte-identical to BidSession.Run.
	Rounds int
	// Policy divides the load across installments (equal or geometric).
	Policy dlt.RoundPolicy
}

// RunLoad serves one load over the session in ld.Rounds installment
// sub-rounds (protocol.LoadRound) and returns the aggregated outcome:
// summed money flows (payments, fines, rewards, utilities, work cost,
// user cost), the concatenated verdicts, the pipelined multi-round
// timeline, and the per-installment outcomes under Outcome.Installments
// (each with its own sub-round ID and independently verifiable
// transcript). Every member signs its payment once for the whole load,
// not once per installment. A terminating verdict in installment k stops
// the load there — the remaining installments are never distributed, so
// a deviant risks the full fine F for at most one installment's gain. A
// processor that crashes mid-computation is dead for the rest of the
// load: the survivors carry the remaining installments while the
// completed ones stay credited.
func RunLoad(s *protocol.BidSession, ld Load) (*protocol.Outcome, error) {
	if s == nil {
		return nil, errors.New("pipeline: nil bid session")
	}
	if err := dlt.InstallmentFeasible(s.Network(), ld.Rounds); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if ld.Rounds == 1 {
		return s.Run(ld.Job)
	}
	fracs, err := dlt.RoundFractions(ld.Rounds, ld.Policy)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	load, err := s.BeginLoad(ld.Rounds, ld.Policy)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	for k, f := range fracs {
		ended, err := load.Serve(ld.Job, f)
		if err != nil {
			return nil, fmt.Errorf("pipeline: installment %d/%d: %w", k+1, ld.Rounds, err)
		}
		if ended {
			break
		}
	}
	outs, err := load.Settle()
	if err != nil {
		return nil, fmt.Errorf("pipeline: settling payments: %w", err)
	}
	agg, err := aggregate(outs, ld.Policy)
	if err != nil {
		return nil, err
	}
	if ld.Job.Tracer != nil {
		// The load-level settlement closes the telescoping-payments
		// invariant: the sentinel checks this total against the sum of the
		// installment invoices recorded under "<load round>.iK".
		total := 0.0
		for _, p := range agg.Payments {
			total += p
		}
		ld.Job.Tracer.Event(obs.Event{
			Kind: obs.EvLoadSettled, From: protocol.UserID, Round: agg.RoundID,
			Values: []float64{total},
		})
	}
	return agg, nil
}

// aggregate folds per-installment outcomes into one load-level outcome.
func aggregate(outs []*protocol.Outcome, policy dlt.RoundPolicy) (*protocol.Outcome, error) {
	last := outs[len(outs)-1]
	rr, err := protocol.ParseRoundRef(last.RoundID)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	agg := &protocol.Outcome{
		Completed:    last.Completed,
		TerminatedIn: last.TerminatedIn,
		Procs:        last.Procs,
		Participated: last.Participated,
		Bids:         last.Bids,
		Alloc:        last.Alloc,
		Assignments:  last.Assignments,
		Exec:         last.Exec,
		RoundID:      protocol.RoundRef{Salt: rr.Salt, Round: rr.Round}.String(),
		BidReused:    last.BidReused,
		BidSpliced:   last.BidSpliced,
		// No single referee log spans sub-rounds: each installment's
		// Transcript verifies on its own, which keeps the evidence
		// separable. The aggregate's Transcript therefore stays nil.
		FineMagnitude: last.FineMagnitude,
		Installments:  outs,
		Evicted:       make([]bool, len(last.Procs)),
	}
	m := len(last.Procs)
	sum := func(pick func(*protocol.Outcome) []float64) []float64 {
		full := make([]float64, m)
		for _, out := range outs {
			if v := pick(out); v != nil {
				for i := range v {
					full[i] += v[i]
				}
			}
		}
		return full
	}
	agg.Payments = sum(func(o *protocol.Outcome) []float64 { return o.Payments })
	agg.Fines = sum(func(o *protocol.Outcome) []float64 { return o.Fines })
	agg.Rewards = sum(func(o *protocol.Outcome) []float64 { return o.Rewards })
	agg.Utilities = sum(func(o *protocol.Outcome) []float64 { return o.Utilities })
	agg.WorkCost = sum(func(o *protocol.Outcome) []float64 { return o.WorkCost })
	agg.Phi = sum(func(o *protocol.Outcome) []float64 { return o.Phi })
	for _, out := range outs {
		agg.UserCost += out.UserCost
		agg.LoadFraction += out.LoadFraction
		agg.Verdicts = append(agg.Verdicts, out.Verdicts...)
		agg.Evictions = append(agg.Evictions, out.Evictions...)
		for i, ev := range out.Evicted {
			if ev {
				agg.Evicted[i] = true
			}
		}
		agg.BusStats.Messages += out.BusStats.Messages
		agg.BusStats.Units += out.BusStats.Units
		agg.BusStats.Deliveries += out.BusStats.Deliveries
		agg.BusStats.DeliveredUnits += out.BusStats.DeliveredUnits
		agg.BusStats.Broadcasts += out.BusStats.Broadcasts
		agg.BusStats.Unicasts += out.BusStats.Unicasts
		agg.BusStats.Dropped += out.BusStats.Dropped
		agg.BusStats.Duplicated += out.BusStats.Duplicated
		agg.BusStats.Delayed += out.BusStats.Delayed
		agg.BusStats.Corrupted += out.BusStats.Corrupted
		agg.BusStats.Reordered += out.BusStats.Reordered
		agg.Fault.Retransmits += out.Fault.Retransmits
		agg.Fault.DupDiscards += out.Fault.DupDiscards
		agg.Fault.CorruptDiscards += out.Fault.CorruptDiscards
		agg.Fault.Timeouts += out.Fault.Timeouts
		agg.Fault.BackoffTime += out.Fault.BackoffTime
		agg.Fault.Evictions += out.Fault.Evictions
	}
	if agg.Completed {
		// The realized pipelined schedule: the last installment's member
		// set ran every completed installment, so the multi-round builder
		// over its realized rates and allocation is the load's timeline.
		in, alloc, err := realized(last)
		if err != nil {
			return nil, err
		}
		tl, err := dlt.MultiRoundSchedule(in, alloc, len(outs), policy)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		agg.Timeline = tl
		agg.Makespan = tl.Makespan
	}
	return agg, nil
}

// realized extracts the participant-space instance (realized execution
// rates) and allocation from a completed outcome's config-space series.
func realized(out *protocol.Outcome) (dlt.Instance, dlt.Allocation, error) {
	var w []float64
	var alloc dlt.Allocation
	for i := range out.Procs {
		if out.Participated[i] && !out.Evicted[i] {
			w = append(w, out.Exec[i])
			alloc = append(alloc, out.Alloc[i])
		}
	}
	if len(w) == 0 {
		return dlt.Instance{}, nil, errors.New("pipeline: outcome has no surviving participants")
	}
	in := dlt.Instance{Network: out.Timeline.Instance.Network, Z: out.Timeline.Instance.Z, W: w}
	if err := in.Validate(); err != nil {
		return dlt.Instance{}, nil, fmt.Errorf("pipeline: %w", err)
	}
	return in, alloc, nil
}

package main

import "fmt"

// fingerprintOps is how many submissions each workload's fingerprint
// plays after its first op.
var fingerprintOps = map[string]int{"reuse": 64, "pipelined": 16, "plain-faulty": 64, "netbus": 32}

// fingerprint plays a fixed number of submissions of every workload from
// one caller at the given seed and returns each workload's cumulative
// operation counts. These counts are deterministic: two runs at the same
// seed must agree exactly, so a later change may cite them as counts
// (never as speed-ups).
func fingerprint(seed int64) (map[string]map[string]int64, error) {
	in := newInstance(seed)
	prints := map[string]map[string]int64{}
	for _, name := range workloadNames() {
		t, err := workloads[name].boot(in)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		for s := 1; s <= fingerprintOps[name]; s++ {
			for _, o := range t.submit(int64(s*t.batch()), false) {
				if o.err != nil {
					t.finish()
					return nil, fmt.Errorf("%s: %w", name, o.err)
				}
			}
		}
		c := t.snapshot()
		if err := t.finish(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		prints[name] = map[string]int64{
			"ops":                 int64((fingerprintOps[name] + 1) * t.batch()),
			"subrounds":           c.subrounds,
			"full_bidding_rounds": c.fullBids,
			"bus_msgs":            c.msgs,
			"bus_deliveries":      c.deliveries,
			"bus_units":           c.units,
			"bus_drops":           c.drops,
			"bus_duplicates":      c.duplicates,
			"bus_reorders":        c.reorders,
			"retransmits":         c.retransmits,
			"dedup_hits":          c.dedups,
			"convictions":         c.convictions,
			"memo_hits":           c.memoHits,
			"memo_size":           c.memoSize,
			"packed_jobs":         c.packedJobs,
			"datagrams_out":       c.datagramsOut,
			"datagrams_in":        c.datagramsIn,
		}
	}
	return prints, nil
}

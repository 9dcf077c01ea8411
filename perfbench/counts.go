package main

import allarm "allarm"

// counts are the exact per-layer work counts of one or more runs, read
// from their Results.
type counts struct {
	events, accesses, l2Misses                   uint64
	pfAllocs, pfEvictions, localReqs, remoteReqs uint64
	untracked, localProbes, probesHidden         uint64
	evictionMsgs, nocMsgs, nocBytes              uint64
}

func countsOf(r *allarm.Result) counts {
	return counts{
		events: r.Events, accesses: r.Accesses, l2Misses: r.L2Misses,
		pfAllocs: r.PFAllocs, pfEvictions: r.PFEvictions, localReqs: r.LocalRequests, remoteReqs: r.RemoteRequests,
		untracked: r.UntrackedGrants, localProbes: r.LocalProbes, probesHidden: r.ProbesHidden,
		evictionMsgs: r.EvictionMsgs, nocMsgs: r.NoCMessages, nocBytes: r.NoCBytes,
	}
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.accesses += o.accesses
	c.l2Misses += o.l2Misses
	c.pfAllocs += o.pfAllocs
	c.pfEvictions += o.pfEvictions
	c.localReqs += o.localReqs
	c.remoteReqs += o.remoteReqs
	c.untracked += o.untracked
	c.localProbes += o.localProbes
	c.probesHidden += o.probesHidden
	c.evictionMsgs += o.evictionMsgs
	c.nocMsgs += o.nocMsgs
	c.nocBytes += o.nocBytes
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// countDefs are the per-policy exact counts of the traced run.
var countDefs = []struct {
	name, unit string
	get        func(c counts) float64
}{
	{"sim.events", "count", func(c counts) float64 { return float64(c.events) }},
	{"cache.l2_misses", "count", func(c counts) float64 { return float64(c.l2Misses) }},
	{"core.pf_allocs", "count", func(c counts) float64 { return float64(c.pfAllocs) }},
	{"core.pf_evictions", "count", func(c counts) float64 { return float64(c.pfEvictions) }},
	{"core.local_requests", "count", func(c counts) float64 { return float64(c.localReqs) }},
	{"core.remote_requests", "count", func(c counts) float64 { return float64(c.remoteReqs) }},
	{"core.untracked_grants", "count", func(c counts) float64 { return float64(c.untracked) }},
	{"core.untracked_share", "share", func(c counts) float64 { return ratio(c.untracked, c.localReqs) }},
	{"core.probes_hidden_share", "share", func(c counts) float64 { return ratio(c.probesHidden, c.localProbes) }},
	{"coherence.eviction_msgs", "count", func(c counts) float64 { return float64(c.evictionMsgs) }},
	{"coherence.msgs_per_eviction", "ratio", func(c counts) float64 { return ratio(c.evictionMsgs, c.pfEvictions) }},
	{"noc.msgs", "count", func(c counts) float64 { return float64(c.nocMsgs) }},
	{"noc.bytes", "bytes", func(c counts) float64 { return float64(c.nocBytes) }},
}

// policyCounts reports the exact counts of each policy of the pair.
func policyCounts(rep *report, byPolicy map[string]counts) {
	for _, pol := range pairPolicyNames {
		for _, d := range countDefs {
			rep.metrics[d.name+"."+pol] = d.get(byPolicy[pol])
		}
	}
}

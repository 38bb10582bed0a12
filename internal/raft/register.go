package raft

import "lfi/internal/system"

// SystemName is the registry name of the scripted RAFT follower harness.
const SystemName = "raft"

// The descriptor makes the RAFT follower harness visible to every
// registry-driven entry point — the whole registration is this one
// package (the distharness layer supplies the trace loop). The
// log-truncation crash is StackWindowOnly: the replication APPENDs sit
// at global recvfrom counts past the occurrence bound (the election
// churn consumed it), and a single loss is repaired from the next
// message's piggybacked entry — only a bred call-stack window, a burst
// counted locally at the applog receive site, can lose two consecutive
// APPENDs. The conformance test enforces that nothing else finds it.
func init() {
	system.Register(&system.Descriptor{
		Name:     SystemName,
		Workload: "scripted deterministic follower-trace harness (six-term election churn, then four replicated log entries)",
		Binary:   Binary,
		Target:   Target,
		Blocks:   Blocks,
		Profiles: system.DefaultProfiles,
		StockBugs: []system.StockBug{
			{Match: "fwrite(NULL FILE*)", Note: "shutdown snapshot's unchecked fopen crashes the following fwrite"},
			{Match: "log truncation", Note: "commit index advanced past entries truncated by two consecutive APPEND losses; the snapshot of the committed prefix dereferences the hole", WindowOnly: true, StackWindowOnly: true},
		},
	})
}

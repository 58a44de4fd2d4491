// Package cluster merges per-site LTC trackers into one cluster-wide
// significant-items view — the paper's Use Case 3 endgame: "if persistent
// flows all over the data center can be efficiently identified, we can
// make a global solution to schedule the persistent flows".
//
// A Topology carves the item space into partitions, hosts each partition
// as a tenant namespace on R replica sites, and routes every item to
// exactly one partition, so merging partitions never double-counts an
// item. A Gatherer pulls each partition's checkpoint from its replicas
// through a SiteClient (HTTP in cmd/sigcoord, fakes in tests), retrying
// transient failures under a RetryPolicy and skipping sites whose
// BreakerConfig circuit breaker is open. A round commits a merged view
// only when every partition reached read quorum; otherwise the previous
// view keeps serving, marked stale.
package cluster

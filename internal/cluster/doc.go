// Package cluster ranks per-site LTC trackers as one cluster-wide
// significant-items view — the paper's Use Case 3 endgame: "if persistent
// flows all over the data center can be efficiently identified, we can
// make a global solution to schedule the persistent flows".
//
// A Topology carves the item space into partitions, hosts each partition
// as a tenant namespace on R replica sites, and routes every item to
// exactly one partition, so the partitions hold disjoint items and one
// selection over all their cells ranks the fleet without double-counting
// an item. A Gatherer pulls each partition's checkpoint from its replicas
// through a SiteClient (HTTP in cmd/sigcoord, fakes in tests), retrying
// transient failures under a RetryPolicy and skipping sites whose
// BreakerConfig circuit breaker is open. A round commits the freshest
// replica image of every partition as the view only when every partition
// reached read quorum and the images rank by the same weights; otherwise
// the previous view keeps serving, marked stale. The view's TopK is
// sigstream.TopKAcross over those images: nothing is merged.
package cluster

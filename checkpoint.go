package sigstream

import (
	"errors"
	"fmt"
	"strconv"
)

// ErrNoCheckpoints reports an empty checkpoint list.
var ErrNoCheckpoints = errors.New("sigstream: no checkpoints to merge")

// CheckpointTag formats the version tag of a tracker whose Stats report
// periods and arrivals, quoted like an HTTP entity tag and equal for two
// trackers exactly when both numbers are. The checkpoint route answers a
// request whose If-None-Match is exactly the live tracker's tag with 304
// and no image; a cluster gatherer sends the tag of the replica image it
// already holds, since it keeps that image unless another replica is
// ahead on periods, then arrivals.
func CheckpointTag(periods, arrivals uint64) string {
	return `"` + strconv.FormatUint(periods, 10) + "." + strconv.FormatUint(arrivals, 10) + `"`
}

// MergeCheckpoints restores each binary checkpoint (as produced by
// LTC.MarshalBinary) and folds them into a single tracker — the one-call
// aggregation path for per-site summaries. All checkpoints must come from
// trackers built with the same Config.
func MergeCheckpoints(images ...[]byte) (*LTC, error) {
	if len(images) == 0 {
		return nil, ErrNoCheckpoints
	}
	root := New(Config{})
	if err := root.UnmarshalBinary(images[0]); err != nil {
		return nil, fmt.Errorf("checkpoint 0: %w", err)
	}
	for i, img := range images[1:] {
		shard := New(Config{})
		if err := shard.UnmarshalBinary(img); err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i+1, err)
		}
		if err := root.Merge(shard); err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i+1, err)
		}
	}
	return root, nil
}

// MergeShardedCheckpoints restores each binary checkpoint (as produced by
// Sharded.MarshalBinary, and as served by sigserver's checkpoint route)
// and folds them, one at a time and in order, into a single Sharded
// tracker: shard i of every image merges into shard i of the result,
// preserving the hash partition. All checkpoints must come from trackers
// built with the same Config and shard count. The merged tracker keeps one
// image's cells, so it loses what did not fit; a cluster coordinator
// instead keeps every partition's image and ranks them with TopKAcross.
func MergeShardedCheckpoints(images ...[]byte) (*Sharded, error) {
	if len(images) == 0 {
		return nil, ErrNoCheckpoints
	}
	root := new(Sharded)
	if err := root.UnmarshalBinary(images[0]); err != nil {
		return nil, fmt.Errorf("checkpoint 0: %w", err)
	}
	for i, img := range images[1:] {
		next := new(Sharded)
		if err := next.UnmarshalBinary(img); err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i+1, err)
		}
		if err := mergeShards(root, next, i+1); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// mergeShards folds next, the i-th tracker or checkpoint, into root shard
// by shard, without locks.
func mergeShards(root, next *Sharded, i int) error {
	if len(next.shards) != len(root.shards) {
		return fmt.Errorf("checkpoint %d: %d shards, want %d",
			i, len(next.shards), len(root.shards))
	}
	for s := range root.shards {
		if err := root.shards[s].l.Merge(next.shards[s].l); err != nil {
			return fmt.Errorf("checkpoint %d shard %d: %w", i, s, err)
		}
	}
	return nil
}

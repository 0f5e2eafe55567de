// Package keyhash maps string keys onto shards. It is the one key-hash
// sharder in the repo: kvdb partitions rows by it and detect's
// ShardedTracker partitions machines by it, so both spread keys the same
// way.
package keyhash

// Shard returns key's shard in [0, n): 32-bit FNV-1a of the key's bytes,
// mod n. The values equal hash/fnv's New32a().Sum32() % n, without its
// allocations. Shard is small enough to inline, so a constant
// power-of-two n compiles to a mask. n must be positive.
func Shard(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

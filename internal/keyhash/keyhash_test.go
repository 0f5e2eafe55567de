package keyhash

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestShardMatchesFNV32a pins Shard to hash/fnv's New32a mod n, the hash
// both kvdb partitioning and tracker sharding used before they shared
// this function: no key may move shard.
func TestShardMatchesFNV32a(t *testing.T) {
	var keys []string
	for i := 0; i < 10000; i++ {
		keys = append(keys, fmt.Sprintf("m%05d", i), fmt.Sprintf("row%d", i))
	}
	keys = append(keys, "", "k", "bench/0")
	for _, n := range []int{16, 7} {
		for _, k := range keys {
			h := fnv.New32a()
			h.Write([]byte(k))
			if got, want := Shard(k, n), int(h.Sum32()%uint32(n)); got != want {
				t.Fatalf("Shard(%q, %d) = %d, want %d", k, n, got, want)
			}
		}
	}
}

func TestShardAllocFree(t *testing.T) {
	key := "m01234"
	if a := testing.AllocsPerRun(1000, func() { _ = Shard(key, 16) }); a != 0 {
		t.Fatalf("Shard allocates %v times per call, want 0", a)
	}
}

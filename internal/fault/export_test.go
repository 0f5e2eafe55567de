package fault

// NextDraws returns the next n values of c's private random stream. The
// bulk fast-path tests (package fault_test) use it to check that a bulk
// operation leaves the stream exactly where the per-op loop leaves it.
func NextDraws(c *Core, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.rng.Uint64()
	}
	return out
}

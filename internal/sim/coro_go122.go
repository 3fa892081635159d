//go:build !go1.23

package sim

// The engine runs its actors as coroutines (iter.Pull, coro.go), which
// Go 1.23 added: build this module with Go 1.23 or later.
var _ = sim_needs_go1_23_for_iter_Pull

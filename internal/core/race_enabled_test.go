//go:build race

package core

// Under the race detector sync.Pool deliberately drops a quarter of Puts,
// so pooled fast paths re-allocate at random and steady-state allocation
// counts are meaningless. The zero-alloc guards skip themselves here; the
// no-race run of the suite still enforces them.
const raceEnabled = true

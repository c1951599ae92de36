//go:build race

package experiments

// The race detector slows the quick reproduction's full dataset build and
// model training about tenfold, past the test binary's time limit. The
// golden pin checks numbers, not concurrency (the parallel build has its
// own race-detector tests in core), so it runs only without -race.
const raceEnabled = true

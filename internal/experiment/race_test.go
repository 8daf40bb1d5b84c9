//go:build race

package experiment_test

// raceEnabled lets serial determinism checks that regenerate whole
// reports skip under the race detector, where they would multiply the
// package's run time without exercising any concurrency the sweep tests
// do not already cover.
const raceEnabled = true

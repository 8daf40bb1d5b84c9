//go:build !race

package experiment_test

const raceEnabled = false

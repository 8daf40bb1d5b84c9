//go:build race

package core

// raceEnabled lets the serial pins that run background-load trials skip
// under the race detector, where millions of scheduler events per trial
// would multiply the package's run time without exercising any
// concurrency.
const raceEnabled = true

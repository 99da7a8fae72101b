//go:build race

package main

// raceDetectorOn tells the smoke test that the race detector's slowdown
// can make the load generator miss its schedule; the run is then refused
// as invalid after it exercised every goroutine, which is all a race
// build can check.
const raceDetectorOn = true

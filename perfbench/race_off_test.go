//go:build !race

package main

const raceDetectorOn = false

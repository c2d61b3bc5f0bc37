//go:build race

package main

func init() { raceDetector = true }

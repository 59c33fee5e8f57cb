//go:build !race

package rms_test

const raceEnabled = false

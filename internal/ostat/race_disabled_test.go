//go:build !race

package ostat

const raceEnabled = false

//go:build !race

package medium

// raceEnabled gates allocation-count assertions; see race_test.go.
const raceEnabled = false

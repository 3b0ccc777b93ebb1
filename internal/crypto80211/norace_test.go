//go:build !race

package crypto80211

// raceEnabled gates allocation-count assertions; see race_test.go.
const raceEnabled = false

//go:build race

package crypto80211

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation changes what the runtime allocates, so exact counts hold
// only without it.
const raceEnabled = true

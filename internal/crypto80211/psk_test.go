package crypto80211

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// forgetPSK drops one pair from the PSK cache, so the next PSK call for it
// is a miss whatever ran earlier in the process.
func forgetPSK(passphrase, ssid string) {
	pskCache.mu.Lock()
	delete(pskCache.keys, pskKey{passphrase, ssid})
	pskCache.mu.Unlock()
}

// cachedPSK reports whether the PSK cache holds the pair.
func cachedPSK(passphrase, ssid string) bool {
	pskCache.mu.Lock()
	defer pskCache.mu.Unlock()
	_, ok := pskCache.keys[pskKey{passphrase, ssid}]
	return ok
}

func pbkdf2PSK(passphrase, ssid string) []byte {
	return PBKDF2SHA1([]byte(passphrase), []byte(ssid), 4096, PSKLen)
}

// The cache keys on the pair, not on its concatenation: ("ab", "c") and
// ("a", "bc") are different networks with different PMKs.
func TestPSKKeysOnThePair(t *testing.T) {
	ab, bc := PSK("ab", "c"), PSK("a", "bc")
	if bytes.Equal(ab, bc) {
		t.Fatal(`PSK("ab","c") == PSK("a","bc")`)
	}
	if want := pbkdf2PSK("ab", "c"); !bytes.Equal(ab, want) {
		t.Errorf(`PSK("ab","c") = %x, want %x`, ab, want)
	}
	if want := pbkdf2PSK("a", "bc"); !bytes.Equal(bc, want) {
		t.Errorf(`PSK("a","bc") = %x, want %x`, bc, want)
	}
}

// A caller owns the key PSK returns: writing into it cannot reach the cache.
func TestPSKReturnsACopy(t *testing.T) {
	const pass, ssid = "scribble on me", "lab-net"
	want := pbkdf2PSK(pass, ssid)
	forgetPSK(pass, ssid)
	for _, call := range []string{"miss", "hit"} {
		k := PSK(pass, ssid)
		for i := range k {
			k[i] = ^k[i]
		}
		if got := PSK(pass, ssid); !bytes.Equal(got, want) {
			t.Fatalf("after writing into the key a %s returned, PSK = %x, want %x", call, got, want)
		}
	}
}

// Goroutines racing on cold and warm entries all get PBKDF2's bytes. Run
// under -race this also checks the cache's locking.
func TestPSKConcurrent(t *testing.T) {
	const goroutines, pairs = 16, 4
	want := make(map[[2]string][]byte)
	for p := 0; p < pairs; p++ {
		pair := [2]string{fmt.Sprintf("passphrase-%d", p), fmt.Sprintf("ssid-%d", p)}
		want[pair] = pbkdf2PSK(pair[0], pair[1])
		forgetPSK(pair[0], pair[1])
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pair, w := range want {
				if got := PSK(pair[0], pair[1]); !bytes.Equal(got, w) {
					t.Errorf("goroutine %d: PSK%q = %x, want %x", g, pair, got, w)
				}
			}
		}()
	}
	wg.Wait()
}

// A hit allocates only the caller's copy of the key.
func TestPSKHitAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	PSK("correct horse battery staple", "lab-net")
	allocs := testing.AllocsPerRun(100, func() {
		PSK("correct horse battery staple", "lab-net")
	})
	if allocs != 1 {
		t.Fatalf("a PSK cache hit made %v allocations, want 1", allocs)
	}
}

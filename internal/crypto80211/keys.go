// Package crypto80211 implements the WPA2-PSK key machinery exercised by
// the 802.11 join that Wi-LE exists to avoid: PSK derivation (PBKDF2-SHA1),
// the 802.11i pseudo-random function, pairwise-key derivation, the
// EAPOL-Key frame codec, and the 4-way handshake state machines.
//
// The paper's §3.1 measures this cost concretely: with the Google WiFi AP
// running 802.1X-style PSK authentication, "at least 8 frames are exchanged
// during this process", part of the ≥20 MAC-layer frames a reconnecting
// client pays before it can send one byte of sensor data. The handshake
// here is cryptographically real (the MICs verify, the GTK unwraps) so the
// frame counts and frame sizes in the simulation are the true ones.
package crypto80211

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"sync"
)

// PSKLen is the length of a WPA2 pairwise master key.
const PSKLen = 32

// PBKDF2SHA1 derives keyLen bytes from the password and salt using
// PBKDF2-HMAC-SHA1 (RFC 2898). The standard library gained crypto/pbkdf2
// only recently; the dependency-free implementation here is 30 lines and
// verified against the RFC 6070 and IEEE 802.11i test vectors.
func PBKDF2SHA1(password, salt []byte, iter, keyLen int) []byte {
	prf := hmac.New(sha1.New, password)
	hashLen := prf.Size()
	numBlocks := (keyLen + hashLen - 1) / hashLen

	var buf [4]byte
	dk := make([]byte, 0, numBlocks*hashLen)
	u := make([]byte, hashLen)
	for block := 1; block <= numBlocks; block++ {
		prf.Reset()
		prf.Write(salt)
		binary.BigEndian.PutUint32(buf[:], uint32(block))
		prf.Write(buf[:])
		dk = prf.Sum(dk)
		t := dk[len(dk)-hashLen:]
		copy(u, t)
		for n := 2; n <= iter; n++ {
			prf.Reset()
			prf.Write(u)
			u = prf.Sum(u[:0])
			for x := range u {
				t[x] ^= u[x]
			}
		}
	}
	return dk[:keyLen]
}

// PSK derives the 256-bit pairwise master key from an ASCII passphrase and
// SSID, per IEEE 802.11-2016 Annex J: 4096 iterations of PBKDF2-HMAC-SHA1.
//
// The PMK depends only on (passphrase, SSID), so PSK derives each pair once
// per process and every later call copies the memoized key, as real
// devices do: hostapd and wpa_supplicant derive the PMK once at config
// load, and ESP32 firmware keeps it in flash across deep-sleep wakes.
// Simulated energy comes from the device's current waveform, not from host
// CPU, so the cache changes no simulated quantity. Entries are never
// evicted; a run uses a handful of networks. The returned slice is the
// caller's own: writing into it leaves the cache unchanged.
func PSK(passphrase, ssid string) []byte {
	k := pskKey{passphrase, ssid}
	pskCache.mu.Lock()
	pmk, ok := pskCache.keys[k]
	pskCache.mu.Unlock()
	if !ok {
		copy(pmk[:], PBKDF2SHA1([]byte(passphrase), []byte(ssid), 4096, PSKLen))
		pskCache.mu.Lock()
		pskCache.keys[k] = pmk
		pskCache.mu.Unlock()
	}
	return append([]byte(nil), pmk[:]...)
}

// pskKey is one PSK cache key. A struct, not a concatenation, so no two
// distinct pairs ("ab", "c") and ("a", "bc") can share an entry.
type pskKey struct {
	passphrase, ssid string
}

// pskCache memoizes PSK across the whole process. A miss derives outside
// the lock, so concurrent first derivations of different networks run in
// parallel; two racing misses on one pair store identical bytes.
var pskCache = struct {
	mu   sync.Mutex
	keys map[pskKey][PSKLen]byte // guarded by mu
}{keys: make(map[pskKey][PSKLen]byte)}

// PRF is the IEEE 802.11i pseudo-random function (§12.7.1.2): HMAC-SHA1
// iterated over label and data with a counter, producing bits/8 bytes.
func PRF(key []byte, label string, data []byte, bits int) []byte {
	n := (bits + 159) / 160 // SHA-1 blocks needed
	out := make([]byte, 0, n*sha1.Size)
	mac := hmac.New(sha1.New, key)
	for i := 0; i < n; i++ {
		mac.Reset()
		mac.Write([]byte(label))
		mac.Write([]byte{0})
		mac.Write(data)
		mac.Write([]byte{byte(i)})
		out = mac.Sum(out)
	}
	return out[:bits/8]
}

// NonceLen is the length of the ANonce/SNonce values.
const NonceLen = 32

// PTK is a derived pairwise transient key, split into its purposes.
type PTK struct {
	// KCK (key confirmation key) authenticates EAPOL-Key MICs.
	KCK [16]byte
	// KEK (key encryption key) wraps the GTK in message 3.
	KEK [16]byte
	// TK (temporal key) encrypts data frames (CCMP).
	TK [16]byte
}

// DerivePTK computes the CCMP pairwise transient key (384 bits) from the
// PMK, the two MAC addresses and the two nonces, per §12.7.1.3. The
// min/max canonicalization makes the derivation symmetric: both sides
// compute the same key regardless of who is authenticator.
func DerivePTK(pmk []byte, aa, spa [6]byte, anonce, snonce [NonceLen]byte) PTK {
	data := make([]byte, 0, 12+2*NonceLen)
	minA, maxA := aa, spa
	if bytes.Compare(spa[:], aa[:]) < 0 {
		minA, maxA = spa, aa
	}
	data = append(data, minA[:]...)
	data = append(data, maxA[:]...)
	minN, maxN := anonce, snonce
	if bytes.Compare(snonce[:], anonce[:]) < 0 {
		minN, maxN = snonce, anonce
	}
	data = append(data, minN[:]...)
	data = append(data, maxN[:]...)

	raw := PRF(pmk, "Pairwise key expansion", data, 384)
	var ptk PTK
	copy(ptk.KCK[:], raw[0:16])
	copy(ptk.KEK[:], raw[16:32])
	copy(ptk.TK[:], raw[32:48])
	return ptk
}

// GTKLen is the group temporal key length for CCMP.
const GTKLen = 16

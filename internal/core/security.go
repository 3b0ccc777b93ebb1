package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Security extension (§6): "since Wi-LE systems communicate by injecting
// raw packets with no encryption, all devices within range of the sender
// can obtain the transmitted data... However, security can be easily
// provided by encrypting the data prior to its transmission."
//
// The construction is encrypt-then-MAC with per-device pre-shared keys:
// AES-128-CTR keyed by the encryption half, HMAC-SHA256 (truncated to 8
// bytes — beacon payload space is precious) keyed by the authentication
// half. The nonce binds device ID, sequence number and flags, so a captured
// beacon cannot be replayed as a different device, sequence, or direction,
// and the scanner drops a replay of the same one: it accepts a sealed
// message only ahead of the device's newest sealed sequence number.
// The 16-bit sequence number wraps after 65536 messages; at the paper's
// ten-minute reporting interval that is over a year per key, and deployments
// rotate keys within that horizon.

// TagLen is the truncated authenticator length appended to ciphertexts.
const TagLen = 8

// KeyLen is the pre-shared key length.
const KeyLen = 16

// Key holds one device's pre-shared key material.
type Key struct {
	enc [KeyLen]byte
	mac [KeyLen]byte
}

// ErrNoKey reports an encrypted message arriving at a scanner without a
// key for the device.
var ErrNoKey = errors.New("core: message is encrypted and no key is configured")

// ErrAuth reports a failed authenticator check (wrong key or tampering).
var ErrAuth = errors.New("core: message authentication failed")

// NewKey derives the working keys from a 16-byte pre-shared secret.
func NewKey(secret []byte) (*Key, error) {
	if len(secret) != KeyLen {
		return nil, fmt.Errorf("core: key must be %d bytes, have %d", KeyLen, len(secret))
	}
	k := &Key{}
	// Domain-separated subkeys via HMAC: enc = H(secret,"enc"), mac = H(secret,"mac").
	h := hmac.New(sha256.New, secret)
	h.Write([]byte("wile-enc"))
	copy(k.enc[:], h.Sum(nil))
	h.Reset()
	h.Write([]byte("wile-mac"))
	copy(k.mac[:], h.Sum(nil))
	return k, nil
}

// nonce builds the 16-byte CTR initial counter block.
func (k *Key) nonce(deviceID uint32, seq uint16, flags byte) [aes.BlockSize]byte {
	var n [aes.BlockSize]byte
	n[0] = 'W'
	n[1] = 'L'
	n[2] = flags
	n[4] = byte(deviceID >> 24)
	n[5] = byte(deviceID >> 16)
	n[6] = byte(deviceID >> 8)
	n[7] = byte(deviceID)
	n[8] = byte(seq >> 8)
	n[9] = byte(seq)
	// Bytes 10..15 are the CTR counter, starting at zero.
	return n
}

// Seal encrypts and authenticates plaintext, returning ciphertext||tag.
func (k *Key) Seal(deviceID uint32, seq uint16, flags byte, plaintext []byte) []byte {
	block, err := aes.NewCipher(k.enc[:])
	if err != nil {
		panic("core: aes.NewCipher: " + err.Error()) // KeyLen is a valid AES key size by construction
	}
	n := k.nonce(deviceID, seq, flags)
	out := make([]byte, len(plaintext), len(plaintext)+TagLen)
	cipher.NewCTR(block, n[:]).XORKeyStream(out, plaintext)

	mac := hmac.New(sha256.New, k.mac[:])
	mac.Write(n[:10]) // bind identity, seq, flags
	mac.Write(out)
	return append(out, mac.Sum(nil)[:TagLen]...)
}

// Open verifies and decrypts ciphertext||tag.
func (k *Key) Open(deviceID uint32, seq uint16, flags byte, sealed []byte) ([]byte, error) {
	if len(sealed) < TagLen {
		return nil, fmt.Errorf("%w: sealed body %d bytes below tag length", ErrAuth, len(sealed))
	}
	ct, tag := sealed[:len(sealed)-TagLen], sealed[len(sealed)-TagLen:]
	n := k.nonce(deviceID, seq, flags)
	mac := hmac.New(sha256.New, k.mac[:])
	mac.Write(n[:10])
	mac.Write(ct)
	if !hmac.Equal(tag, mac.Sum(nil)[:TagLen]) {
		return nil, ErrAuth
	}
	block, err := aes.NewCipher(k.enc[:])
	if err != nil {
		panic("core: aes.NewCipher: " + err.Error())
	}
	out := make([]byte, len(ct))
	cipher.NewCTR(block, n[:]).XORKeyStream(out, ct)
	return out, nil
}

package crypto80211

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"
)

// AES-CCM (NIST SP 800-38C / RFC 3610), the authenticated-encryption mode
// under WPA2's CCMP. The standard library has no CCM, so this implements
// the mode with 802.11's fixed parameters: 8-byte tag (M=8) and 2-byte
// length field (L=2, hence 13-byte nonces).

// CCM parameters fixed by 802.11 CCMP.
const (
	ccmTagLen   = 8
	ccmNonceLen = 13
)

// ErrCCMAuth reports a failed integrity check.
var ErrCCMAuth = errors.New("crypto80211: CCM authentication failed")

// ccm is AES-CCM under one key. It keeps the key's block cipher and the
// blocks the mode computes in, so sealing or opening a frame allocates
// nothing but its output: a block passed to the cipher through its
// interface escapes to the heap, so a local one would be allocated on
// every call. A ccm is not safe for concurrent use.
type ccm struct {
	block cipher.Block
	x     [aes.BlockSize]byte // the CBC-MAC's running block
	a     [aes.BlockSize]byte // the counter block A_i
	ks    [aes.BlockSize]byte // the keystream block E(K, A_i)
}

// newCCM checks the nonce's length and builds the key's block cipher.
func newCCM(key, nonce []byte) (*ccm, error) {
	if len(nonce) != ccmNonceLen {
		return nil, fmt.Errorf("crypto80211: CCM nonce must be %d bytes, have %d", ccmNonceLen, len(nonce))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &ccm{block: block}, nil
}

// mac leaves the CBC-MAC over B0, the encoded AAD and the message in the
// first ccmTagLen bytes of c.x.
func (c *ccm) mac(nonce, aad, msg []byte) {
	// B0: flags [reserved 0][Adata][M' = (M-2)/2 = 3][L' = L-1 = 1], the
	// nonce and the message length.
	c.x[0] = 3<<3 | 1
	if len(aad) > 0 {
		c.x[0] |= 1 << 6
	}
	copy(c.x[1:14], nonce)
	c.x[14], c.x[15] = byte(len(msg)>>8), byte(len(msg))
	c.block.Encrypt(c.x[:], c.x[:])
	if len(aad) > 0 {
		// AAD encoding for len(aad) < 2^16-2^8: a 2-byte length prefix,
		// the whole zero-padded to the block size. All 802.11 AADs
		// qualify.
		c.x[0] ^= byte(len(aad) >> 8)
		c.x[1] ^= byte(len(aad))
		c.absorb(aad, 2)
	}
	c.absorb(msg, 0)
}

// absorb XORs b into the running block from offset off on, encrypting the
// block each time it fills and after b's last bytes: the zero padding of
// a partial last block leaves its bytes as they are.
func (c *ccm) absorb(b []byte, off int) {
	for len(b) > 0 {
		n := subtle.XORBytes(c.x[off:], c.x[off:], b)
		c.block.Encrypt(c.x[:], c.x[:])
		b, off = b[n:], 0
	}
}

// ctr XORs src into dst under the CTR keystream of counter blocks A_i, i
// from counter on: 1 for the payload, 0 for the tag.
func (c *ccm) ctr(nonce, dst, src []byte, counter int) {
	c.a[0] = 1 // L' = 1
	copy(c.a[1:14], nonce)
	for off := 0; off < len(src); off += aes.BlockSize {
		c.a[14], c.a[15] = byte(counter>>8), byte(counter)
		c.block.Encrypt(c.ks[:], c.a[:])
		subtle.XORBytes(dst[off:], src[off:], c.ks[:])
		counter++
	}
}

// appendSealed appends ciphertext||tag of plaintext to dst and returns the
// extended slice, reallocating only if dst lacks the room.
func (c *ccm) appendSealed(dst, nonce, aad, plaintext []byte) []byte {
	c.mac(nonce, aad, plaintext)
	n := len(dst)
	dst = slices.Grow(dst, len(plaintext)+ccmTagLen)[:n+len(plaintext)+ccmTagLen]
	c.ctr(nonce, dst[n:], plaintext, 1)
	c.ctr(nonce, dst[n+len(plaintext):], c.x[:ccmTagLen], 0)
	return dst
}

// open verifies ciphertext||tag against the nonce and AAD and returns the
// plaintext in a new slice.
func (c *ccm) open(nonce, aad, sealed []byte) ([]byte, error) {
	if len(sealed) < ccmTagLen {
		return nil, fmt.Errorf("%w: input shorter than the tag", ErrCCMAuth)
	}
	ct, encTag := sealed[:len(sealed)-ccmTagLen], sealed[len(sealed)-ccmTagLen:]
	plain := make([]byte, len(ct))
	c.ctr(nonce, plain, ct, 1)
	c.mac(nonce, aad, plain)
	var tag [ccmTagLen]byte
	c.ctr(nonce, tag[:], encTag, 0)
	if subtle.ConstantTimeCompare(c.x[:ccmTagLen], tag[:]) != 1 {
		return nil, ErrCCMAuth
	}
	return plain, nil
}

// CCMEncrypt seals plaintext under key with the 13-byte nonce and AAD,
// returning ciphertext||tag (8 bytes longer than the input).
func CCMEncrypt(key, nonce, aad, plaintext []byte) ([]byte, error) {
	c, err := newCCM(key, nonce)
	if err != nil {
		return nil, err
	}
	return c.appendSealed(make([]byte, 0, len(plaintext)+ccmTagLen), nonce, aad, plaintext), nil
}

// CCMDecrypt opens ciphertext||tag, verifying the AAD binding.
func CCMDecrypt(key, nonce, aad, sealed []byte) ([]byte, error) {
	c, err := newCCM(key, nonce)
	if err != nil {
		return nil, err
	}
	return c.open(nonce, aad, sealed)
}

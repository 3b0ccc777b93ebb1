package crypto80211

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"errors"
	"fmt"
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

// ccmB0 builds the first block: flags, nonce, message length.
func ccmB0(nonce []byte, msgLen int, hasAAD bool) [aes.BlockSize]byte {
	var b [aes.BlockSize]byte
	// Flags: [reserved 0][Adata][M' = (M-2)/2 = 3][L' = L-1 = 1]
	b[0] = 3<<3 | 1
	if hasAAD {
		b[0] |= 1 << 6
	}
	copy(b[1:14], nonce)
	b[14] = byte(msgLen >> 8)
	b[15] = byte(msgLen)
	return b
}

// ccmCBCMAC computes the CBC-MAC over B0, the encoded AAD and the message.
func ccmCBCMAC(block cipher.Block, nonce, aad, msg []byte) [ccmTagLen]byte {
	var x [aes.BlockSize]byte
	b0 := ccmB0(nonce, len(msg), len(aad) > 0)
	block.Encrypt(x[:], b0[:])

	xorBlock := func(chunk []byte) {
		for i, c := range chunk {
			x[i] ^= c
		}
		block.Encrypt(x[:], x[:])
	}

	if len(aad) > 0 {
		// AAD encoding for len(aad) < 2^16-2^8: 2-byte length prefix,
		// zero-padded to the block size — all 802.11 AADs qualify.
		first := make([]byte, 0, aes.BlockSize)
		first = append(first, byte(len(aad)>>8), byte(len(aad)))
		take := min(len(aad), aes.BlockSize-2)
		first = append(first, aad[:take]...)
		for len(first) < aes.BlockSize {
			first = append(first, 0)
		}
		xorBlock(first)
		rest := aad[take:]
		for len(rest) > 0 {
			n := min(len(rest), aes.BlockSize)
			chunk := make([]byte, aes.BlockSize)
			copy(chunk, rest[:n])
			xorBlock(chunk)
			rest = rest[n:]
		}
	}
	for off := 0; off < len(msg); off += aes.BlockSize {
		n := min(len(msg)-off, aes.BlockSize)
		chunk := make([]byte, aes.BlockSize)
		copy(chunk, msg[off:off+n])
		xorBlock(chunk)
	}
	var tag [ccmTagLen]byte
	copy(tag[:], x[:ccmTagLen])
	return tag
}

// ccmCTR runs the CTR keystream: counter block A_i with i starting at 1
// for the payload; A_0 encrypts the tag.
func ccmCTR(block cipher.Block, nonce []byte, dst, src []byte, counterStart int) {
	var a [aes.BlockSize]byte
	a[0] = 1 // L' = 1
	copy(a[1:14], nonce)
	var ks [aes.BlockSize]byte
	ctr := counterStart
	for off := 0; off < len(src); off += aes.BlockSize {
		a[14] = byte(ctr >> 8)
		a[15] = byte(ctr)
		block.Encrypt(ks[:], a[:])
		n := min(len(src)-off, aes.BlockSize)
		for i := 0; i < n; i++ {
			dst[off+i] = src[off+i] ^ ks[i]
		}
		ctr++
	}
}

// CCMEncrypt seals plaintext under key with the 13-byte nonce and AAD,
// returning ciphertext||tag (8 bytes longer than the input).
func CCMEncrypt(key, nonce, aad, plaintext []byte) ([]byte, error) {
	if len(nonce) != ccmNonceLen {
		return nil, fmt.Errorf("crypto80211: CCM nonce must be %d bytes, have %d", ccmNonceLen, len(nonce))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	tag := ccmCBCMAC(block, nonce, aad, plaintext)
	out := make([]byte, len(plaintext)+ccmTagLen)
	ccmCTR(block, nonce, out[:len(plaintext)], plaintext, 1)
	// Encrypt the tag with A_0.
	var a0tag [ccmTagLen]byte
	ccmCTR(block, nonce, a0tag[:], tag[:], 0)
	copy(out[len(plaintext):], a0tag[:])
	return out, nil
}

// CCMDecrypt opens ciphertext||tag, verifying the AAD binding.
func CCMDecrypt(key, nonce, aad, sealed []byte) ([]byte, error) {
	if len(nonce) != ccmNonceLen {
		return nil, fmt.Errorf("crypto80211: CCM nonce must be %d bytes, have %d", ccmNonceLen, len(nonce))
	}
	if len(sealed) < ccmTagLen {
		return nil, fmt.Errorf("%w: input shorter than the tag", ErrCCMAuth)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	ct, encTag := sealed[:len(sealed)-ccmTagLen], sealed[len(sealed)-ccmTagLen:]
	plain := make([]byte, len(ct))
	ccmCTR(block, nonce, plain, ct, 1)
	var wantTag [ccmTagLen]byte
	gotTag := ccmCBCMAC(block, nonce, aad, plain)
	ccmCTR(block, nonce, wantTag[:], encTag, 0)
	if subtle.ConstantTimeCompare(gotTag[:], wantTag[:]) != 1 {
		return nil, ErrCCMAuth
	}
	return plain, nil
}

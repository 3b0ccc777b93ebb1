package crypto80211

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
	"math/rand"
	"testing"
)

// The per-chunk AES-CCM this package shipped before its CCM kept its block
// cipher and buffers across frames: it builds the cipher on every call and
// pads each AAD and message chunk into a block of its own. It is the
// oracle TestCCMMatchesOracle checks CCMEncrypt, CCMDecrypt and the
// session's sealing against.

// oracleCCMB0 builds the first block: flags, nonce, message length.
func oracleCCMB0(nonce []byte, msgLen int, hasAAD bool) [aes.BlockSize]byte {
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

// oracleCCMCBCMAC computes the CBC-MAC over B0, the encoded AAD and the
// message.
func oracleCCMCBCMAC(block cipher.Block, nonce, aad, msg []byte) [ccmTagLen]byte {
	var x [aes.BlockSize]byte
	b0 := oracleCCMB0(nonce, len(msg), len(aad) > 0)
	block.Encrypt(x[:], b0[:])

	xorBlock := func(chunk []byte) {
		for i, c := range chunk {
			x[i] ^= c
		}
		block.Encrypt(x[:], x[:])
	}

	if len(aad) > 0 {
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

// oracleCCMCTR runs the CTR keystream: counter block A_i with i starting
// at counterStart.
func oracleCCMCTR(block cipher.Block, nonce []byte, dst, src []byte, counterStart int) {
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

// oracleCCMEncrypt seals plaintext, returning ciphertext||tag.
func oracleCCMEncrypt(key, nonce, aad, plaintext []byte) ([]byte, error) {
	if len(nonce) != ccmNonceLen {
		return nil, fmt.Errorf("crypto80211: CCM nonce must be %d bytes, have %d", ccmNonceLen, len(nonce))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	tag := oracleCCMCBCMAC(block, nonce, aad, plaintext)
	out := make([]byte, len(plaintext)+ccmTagLen)
	oracleCCMCTR(block, nonce, out[:len(plaintext)], plaintext, 1)
	var a0tag [ccmTagLen]byte
	oracleCCMCTR(block, nonce, a0tag[:], tag[:], 0)
	copy(out[len(plaintext):], a0tag[:])
	return out, nil
}

// oracleCCMDecrypt opens ciphertext||tag, verifying the AAD binding.
func oracleCCMDecrypt(key, nonce, aad, sealed []byte) ([]byte, error) {
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
	oracleCCMCTR(block, nonce, plain, ct, 1)
	var wantTag [ccmTagLen]byte
	gotTag := oracleCCMCBCMAC(block, nonce, aad, plain)
	oracleCCMCTR(block, nonce, wantTag[:], encTag, 0)
	if subtle.ConstantTimeCompare(gotTag[:], wantTag[:]) != 1 {
		return nil, ErrCCMAuth
	}
	return plain, nil
}

// TestCCMMatchesOracle checks the CCM in use against the per-chunk oracle
// over random keys and nonces, AAD of 0–30 bytes and messages of 0–100
// bytes, through every way in: CCMEncrypt and CCMDecrypt, one ccm reused
// across all of a key's frames (as a CCMPSession reuses its own), and a
// CCMPSession. Seals and opens must be identical, and so must the
// rejection of a sealed input, AAD or nonce with one bit flipped, or of a
// sealed input cut shorter than the tag.
func TestCCMMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3610))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for k := 0; k < 40; k++ {
		var tk [16]byte
		rng.Read(tk[:])
		key := tk[:]
		reused := &NewCCMPSession(tk).ccm
		tx, rx := NewCCMPSession(tk), NewCCMPSession(tk)
		for trial := 0; trial < 30; trial++ {
			nonce, aad, msg := random(ccmNonceLen), random(rng.Intn(31)), random(rng.Intn(101))
			want, err := oracleCCMEncrypt(key, nonce, aad, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CCMEncrypt(key, nonce, aad, msg)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("key %d trial %d: CCMEncrypt = %x, %v; oracle %x", k, trial, got, err, want)
			}
			prefix := random(rng.Intn(3))
			if got := reused.appendSealed(bytes.Clone(prefix), nonce, aad, msg); !bytes.Equal(got, append(prefix, want...)) {
				t.Fatalf("key %d trial %d: reused seal = %x, want %x after the prefix %x", k, trial, got, want, prefix)
			}
			for _, open := range []func(nonce, aad, sealed []byte) ([]byte, error){
				func(nonce, aad, sealed []byte) ([]byte, error) { return CCMDecrypt(key, nonce, aad, sealed) },
				reused.open,
			} {
				if plain, err := open(nonce, aad, want); err != nil || !bytes.Equal(plain, msg) {
					t.Fatalf("key %d trial %d: open = %x, %v; want %x", k, trial, plain, err, msg)
				}
				n, a, sealed := bytes.Clone(nonce), bytes.Clone(aad), bytes.Clone(want)
				switch target := [][]byte{n, a, sealed}[rng.Intn(3)]; {
				case len(target) > 0 && rng.Intn(4) > 0:
					target[rng.Intn(len(target))] ^= 1 << rng.Intn(8)
				default:
					sealed = sealed[:rng.Intn(ccmTagLen)]
				}
				_, wantErr := oracleCCMDecrypt(key, n, a, sealed)
				plain, err := open(n, a, sealed)
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("key %d trial %d: tampered open = %x, %v; oracle %v", k, trial, plain, err, wantErr)
				}
			}

			meta := CCMPFrameMeta{FC: uint16(rng.Intn(1 << 16)), SeqCtl: uint16(rng.Intn(1 << 16))}
			rng.Read(meta.A1[:])
			rng.Read(meta.A2[:])
			rng.Read(meta.A3[:])
			body, err := tx.Encapsulate(meta, msg)
			if err != nil {
				t.Fatal(err)
			}
			mn, ma := meta.nonce(tx.TxPN()), meta.aad()
			sealed, err := oracleCCMEncrypt(key, mn[:], ma[:], msg)
			if err != nil {
				t.Fatal(err)
			}
			if want := append(appendCCMPHeader(nil, tx.TxPN(), 0), sealed...); !bytes.Equal(body, want) {
				t.Fatalf("key %d trial %d: Encapsulate = %x, want %x", k, trial, body, want)
			}
			if plain, err := rx.Decapsulate(meta, body); err != nil || !bytes.Equal(plain, msg) {
				t.Fatalf("key %d trial %d: Decapsulate = %x, %v; want %x", k, trial, plain, err, msg)
			}
		}
	}
}

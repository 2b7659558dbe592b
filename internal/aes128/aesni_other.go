//go:build !amd64

package aes128

// hasAESNI is false off amd64: every entry point takes the T-table
// path, and the kernel stubs below are unreachable.
func hasAESNI() bool { return false }

func expandAESNI(*Schedule, *[KeySize]byte)                        { panic("aes128: no AES-NI") }
func encryptBlocksAESNI(*Schedule, *byte, *byte, int)              { panic("aes128: no AES-NI") }
func rekeyed2AESNI(_, _ *[2 * BlockSize]byte, _, _ *[KeySize]byte) { panic("aes128: no AES-NI") }
func rekeyed4AESNI(_, _ *[4 * BlockSize]byte, _, _ *[KeySize]byte) { panic("aes128: no AES-NI") }

package aes128

// cpuid returns ECX of CPUID leaf (subleaf 0).
func cpuid(leaf uint32) (ecx uint32)

// hasAESNI reports AES-NI (CPUID leaf 1, ECX bit 25) together with
// SSSE3 (bit 9), which the kernels' PSHUFB needs; every AES-NI CPU has
// it, so in practice this is the AES-NI bit.
func hasAESNI() bool {
	const aes, ssse3 = 1 << 25, 1 << 9
	ecx := cpuid(1)
	return ecx&aes != 0 && ecx&ssse3 != 0
}

//go:noescape
func expandAESNI(s *Schedule, key *[KeySize]byte)

//go:noescape
func encryptBlocksAESNI(s *Schedule, dst, src *byte, n int)

//go:noescape
func rekeyed2AESNI(dst, src *[2 * BlockSize]byte, ka, kb *[KeySize]byte)

//go:noescape
func rekeyed4AESNI(dst, src *[4 * BlockSize]byte, ka, kb *[KeySize]byte)

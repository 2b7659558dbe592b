package aes128

// The fast entry points of the package. Each one runs on the AES-NI
// kernels (aesni_amd64.s) when the CPU has them and on the T-table tier
// (ttable.go) otherwise; both paths read and write the same big-endian
// Schedule layout and produce identical bytes. No call on this path
// allocates, which is what lets the re-keyed hasher in internal/gc run
// with zero allocations.

// useAESNI selects the path. It is fixed at package initialisation from
// CPUID; only ForcePortable changes it afterwards.
var useAESNI = hasAESNI()

// ForcePortable switches every entry point to the portable T-table path
// and returns a function that restores the CPU-selected one. It exists
// so tests can check the fallback against the same vectors on hosts with
// AES-NI; nothing else may call it, and no goroutine may use the package
// while the switch or the restore runs.
func ForcePortable() (restore func()) {
	prev := useAESNI
	useAESNI = false
	return func() { useAESNI = prev }
}

// ExpandFrom computes the key schedule for key into s, overwriting its
// previous contents. It is the allocation-free form of Expand for hot
// paths that own a Schedule and re-key it.
func (s *Schedule) ExpandFrom(key *[KeySize]byte) {
	if useAESNI {
		expandAESNI(s, key)
		return
	}
	s.expandTTable(key)
}

// EncryptTo encrypts one 16-byte block. dst and src may overlap.
func (s *Schedule) EncryptTo(dst, src []byte) {
	_, _ = src[BlockSize-1], dst[BlockSize-1]
	if useAESNI {
		encryptBlocksAESNI(s, &dst[0], &src[0], 1)
		return
	}
	s.encryptBlocksTTable(dst[:BlockSize], src[:BlockSize])
}

// EncryptBlocksTo encrypts len(src)/BlockSize consecutive blocks under
// one schedule. len(src) must be a multiple of BlockSize and dst must be
// at least as long; dst and src may be the same buffer.
func (s *Schedule) EncryptBlocksTo(dst, src []byte) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1] // length check, not capacity: reject a short dst up front
	if useAESNI {
		encryptBlocksAESNI(s, &dst[0], &src[0], len(src)/BlockSize)
		return
	}
	s.encryptBlocksTTable(dst, src)
}

// EncryptRekeyed2 encrypts the first block of src under key ka and the
// second under kb into dst — the evaluator's two hashes of one AND
// gate. On AES-NI both keys are expanded on the fly, interleaved with
// each other and with the encryption rounds, and no round key touches
// memory. dst and src may be the same array.
func EncryptRekeyed2(dst, src *[2 * BlockSize]byte, ka, kb *[KeySize]byte) {
	if useAESNI {
		rekeyed2AESNI(dst, src, ka, kb)
		return
	}
	rekeyedTTable(dst[:], src[:], ka, kb)
}

// EncryptRekeyed4 is EncryptRekeyed2 with two blocks per key: blocks 0
// and 1 under ka, blocks 2 and 3 under kb — the garbler's four hashes of
// one AND gate, which share two gate keys.
func EncryptRekeyed4(dst, src *[4 * BlockSize]byte, ka, kb *[KeySize]byte) {
	if useAESNI {
		rekeyed4AESNI(dst, src, ka, kb)
		return
	}
	rekeyedTTable(dst[:], src[:], ka, kb)
}

// rekeyedTTable is the portable form of the two-key kernels: the first
// half of src under ka, the second under kb.
func rekeyedTTable(dst, src []byte, ka, kb *[KeySize]byte) {
	half := len(src) / 2
	var s Schedule
	s.expandTTable(ka)
	s.encryptBlocksTTable(dst[:half], src[:half])
	s.expandTTable(kb)
	s.encryptBlocksTTable(dst[half:], src[half:])
}

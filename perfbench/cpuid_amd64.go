package main

// cpuid executes CPUID for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// aesni reports the AES-NI feature bit (CPUID leaf 1, ECX bit 25), the
// bit behind the "aes" flag in /proc/cpuinfo.
func aesni() string {
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<25) != 0 {
		return "yes"
	}
	return "no"
}

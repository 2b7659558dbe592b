#include "textflag.h"

// AES-NI kernels for the aes128 package. Round keys are derived with
// the AESENCLAST method: PSHUFB broadcasts RotWord(w3) into every
// column, so ShiftRows is the identity and AESENCLAST against the round
// constant yields SubWord(RotWord(w3)) ^ rcon in each dword; a running
// prefix XOR of the previous round key finishes the schedule step.
// No table lookup depends on key or data.

// bswap32 reverses the bytes of each dword: it converts between the
// Schedule's big-endian words and AES byte order (an involution).
DATA bswap32<>+0x00(SB)/8, $0x0405060700010203
DATA bswap32<>+0x08(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap32<>(SB), (NOPTR+RODATA), $16

// rotWord broadcasts RotWord of the last key word into every dword.
DATA rotWord<>+0x00(SB)/8, $0x0c0f0e0d0c0f0e0d
DATA rotWord<>+0x08(SB)/8, $0x0c0f0e0d0c0f0e0d
GLOBL rotWord<>(SB), (NOPTR+RODATA), $16

// rcon1 and rcon1b are the round constants of rounds 1 and 9 in every
// dword; PSLLD $1 steps 1→0x80 and 0x1b→0x36.
DATA rcon1<>+0x00(SB)/8, $0x0000000100000001
DATA rcon1<>+0x08(SB)/8, $0x0000000100000001
GLOBL rcon1<>(SB), (NOPTR+RODATA), $16

DATA rcon1b<>+0x00(SB)/8, $0x0000001b0000001b
DATA rcon1b<>+0x08(SB)/8, $0x0000001b0000001b
GLOBL rcon1b<>(SB), (NOPTR+RODATA), $16

// EXPAND replaces the round key in K by the next one, with the round
// constant in X1 and the rotWord mask in X0; T and U are scratch.
#define EXPAND(K, T, U) \
	MOVO       K, T;  \
	PSHUFB     X0, T; \
	AESENCLAST X1, T; \
	MOVO       K, U;  \
	PSLLO      $4, U; \
	PXOR       U, K;  \
	PSLLO      $4, U; \
	PXOR       U, K;  \
	PSLLO      $4, U; \
	PXOR       U, K;  \
	PXOR       T, K

// ROUND1 advances key A (X2) and key B (X3) one round and applies it to
// one block under each: X4 under A, X6 under B.
#define ROUND1(OP) \
	EXPAND(X2, X8, X9);   \
	EXPAND(X3, X10, X11); \
	OP X2, X4;            \
	OP X3, X6

// ROUND2 is ROUND1 for two blocks per key: X4, X5 under A; X6, X7
// under B.
#define ROUND2(OP) \
	EXPAND(X2, X8, X9);   \
	EXPAND(X3, X10, X11); \
	OP X2, X4;            \
	OP X2, X5;            \
	OP X3, X6;            \
	OP X3, X7

// func cpuid(leaf uint32) (ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-12
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL CX, ecx+8(FP)
	RET

// func expandAESNI(s *Schedule, key *[KeySize]byte)
TEXT ·expandAESNI(SB), NOSPLIT, $0-16
	MOVQ  s+0(FP), DI
	MOVQ  key+8(FP), SI
	MOVOU (SI), X2
	MOVOU rotWord<>(SB), X0
	MOVOU rcon1<>(SB), X1
	MOVOU bswap32<>(SB), X12

#define STORE(off) \
	MOVO   X2, X3;   \
	PSHUFB X12, X3;  \
	MOVOU  X3, off(DI)

	STORE(0)
	EXPAND(X2, X8, X9)
	STORE(16)
	PSLLL $1, X1
	EXPAND(X2, X8, X9)
	STORE(32)
	PSLLL $1, X1
	EXPAND(X2, X8, X9)
	STORE(48)
	PSLLL $1, X1
	EXPAND(X2, X8, X9)
	STORE(64)
	PSLLL $1, X1
	EXPAND(X2, X8, X9)
	STORE(80)
	PSLLL $1, X1
	EXPAND(X2, X8, X9)
	STORE(96)
	PSLLL $1, X1
	EXPAND(X2, X8, X9)
	STORE(112)
	PSLLL $1, X1
	EXPAND(X2, X8, X9)
	STORE(128)
	MOVOU rcon1b<>(SB), X1
	EXPAND(X2, X8, X9)
	STORE(144)
	PSLLL $1, X1
	EXPAND(X2, X8, X9)
	STORE(160)
	RET

#undef STORE

// func encryptBlocksAESNI(s *Schedule, dst, src *byte, n int)
TEXT ·encryptBlocksAESNI(SB), NOSPLIT, $0-32
	MOVQ  s+0(FP), AX
	MOVQ  dst+8(FP), DX
	MOVQ  src+16(FP), BX
	MOVQ  n+24(FP), CX
	MOVOU bswap32<>(SB), X11

#define LOAD(off, X) \
	MOVOU  off(AX), X; \
	PSHUFB X11, X

	LOAD(0, X0)
	LOAD(16, X1)
	LOAD(32, X2)
	LOAD(48, X3)
	LOAD(64, X4)
	LOAD(80, X5)
	LOAD(96, X6)
	LOAD(112, X7)
	LOAD(128, X8)
	LOAD(144, X9)
	LOAD(160, X10)

#undef LOAD

pairs:
	CMPQ       CX, $2
	JB         single
	MOVOU      0(BX), X12
	MOVOU      16(BX), X13
	PXOR       X0, X12
	PXOR       X0, X13
	AESENC     X1, X12
	AESENC     X1, X13
	AESENC     X2, X12
	AESENC     X2, X13
	AESENC     X3, X12
	AESENC     X3, X13
	AESENC     X4, X12
	AESENC     X4, X13
	AESENC     X5, X12
	AESENC     X5, X13
	AESENC     X6, X12
	AESENC     X6, X13
	AESENC     X7, X12
	AESENC     X7, X13
	AESENC     X8, X12
	AESENC     X8, X13
	AESENC     X9, X12
	AESENC     X9, X13
	AESENCLAST X10, X12
	AESENCLAST X10, X13
	MOVOU      X12, 0(DX)
	MOVOU      X13, 16(DX)
	ADDQ       $32, BX
	ADDQ       $32, DX
	SUBQ       $2, CX
	JMP        pairs

single:
	TESTQ      CX, CX
	JZ         done
	MOVOU      (BX), X12
	PXOR       X0, X12
	AESENC     X1, X12
	AESENC     X2, X12
	AESENC     X3, X12
	AESENC     X4, X12
	AESENC     X5, X12
	AESENC     X6, X12
	AESENC     X7, X12
	AESENC     X8, X12
	AESENC     X9, X12
	AESENCLAST X10, X12
	MOVOU      X12, (DX)

done:
	RET

// func rekeyed2AESNI(dst, src *[2 * BlockSize]byte, ka, kb *[KeySize]byte)
TEXT ·rekeyed2AESNI(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  ka+16(FP), AX
	MOVQ  kb+24(FP), BX
	MOVOU (AX), X2
	MOVOU (BX), X3
	MOVOU 0(SI), X4
	MOVOU 16(SI), X6
	MOVOU rotWord<>(SB), X0
	MOVOU rcon1<>(SB), X1
	PXOR  X2, X4
	PXOR  X3, X6
	ROUND1(AESENC)
	PSLLL $1, X1
	ROUND1(AESENC)
	PSLLL $1, X1
	ROUND1(AESENC)
	PSLLL $1, X1
	ROUND1(AESENC)
	PSLLL $1, X1
	ROUND1(AESENC)
	PSLLL $1, X1
	ROUND1(AESENC)
	PSLLL $1, X1
	ROUND1(AESENC)
	PSLLL $1, X1
	ROUND1(AESENC)
	MOVOU rcon1b<>(SB), X1
	ROUND1(AESENC)
	PSLLL $1, X1
	ROUND1(AESENCLAST)
	MOVOU X4, 0(DI)
	MOVOU X6, 16(DI)
	RET

// func rekeyed4AESNI(dst, src *[4 * BlockSize]byte, ka, kb *[KeySize]byte)
TEXT ·rekeyed4AESNI(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  ka+16(FP), AX
	MOVQ  kb+24(FP), BX
	MOVOU (AX), X2
	MOVOU (BX), X3
	MOVOU 0(SI), X4
	MOVOU 16(SI), X5
	MOVOU 32(SI), X6
	MOVOU 48(SI), X7
	MOVOU rotWord<>(SB), X0
	MOVOU rcon1<>(SB), X1
	PXOR  X2, X4
	PXOR  X2, X5
	PXOR  X3, X6
	PXOR  X3, X7
	ROUND2(AESENC)
	PSLLL $1, X1
	ROUND2(AESENC)
	PSLLL $1, X1
	ROUND2(AESENC)
	PSLLL $1, X1
	ROUND2(AESENC)
	PSLLL $1, X1
	ROUND2(AESENC)
	PSLLL $1, X1
	ROUND2(AESENC)
	PSLLL $1, X1
	ROUND2(AESENC)
	PSLLL $1, X1
	ROUND2(AESENC)
	MOVOU rcon1b<>(SB), X1
	ROUND2(AESENC)
	PSLLL $1, X1
	ROUND2(AESENCLAST)
	MOVOU X4, 0(DI)
	MOVOU X5, 16(DI)
	MOVOU X6, 32(DI)
	MOVOU X7, 48(DI)
	RET

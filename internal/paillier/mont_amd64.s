#include "textflag.h"

// func montMulADX(z, x, y, m, t *uint64, n int, inv uint64)
//
// The Montgomery product z = x·y·R⁻¹ mod m of mont.go, by coarsely
// integrated operand scanning (Koç, Acar and Kaliski 1996): per limb yᵢ
// one pass adds x·yᵢ into the accumulator, a second adds u·m, with u =
// acc₀·inv chosen so that the low limb clears, and stores the sum one
// limb down. Each pass walks its operand in blocks of 8 limbs with two
// carry chains, as math/big's addMulVVW does: MULX leaves the flags
// alone, ADCX carries the high words into the next low word on CF, ADOX
// adds the accumulator limb on OF, and both chains fold into the carry
// word at the end of a block. n is a positive multiple of 8.
//
// t holds n+1 limbs: t[1..n] is the accumulator, t[0] takes the cleared
// low limb of each second pass. The accumulator's top limb (at most 1
// after a row, since acc < 2m) lives in R12, the carry above it in BX.
// z is written only by the final subtraction, so it may alias x or y.
//
// Registers: DX multiplier, SI operand (x or m), DI accumulator,
// AX/R8/CX product words, R9 zero, R10 block count, R11 &yᵢ, R13 rows
// left.
TEXT ·montMulADX(SB), NOSPLIT, $0-56
	// acc = 0
	MOVQ t+32(FP), DI
	MOVQ n+40(FP), R10
	XORQ AX, AX
zero:
	MOVQ AX, 8(DI)
	ADDQ $8, DI
	DECQ R10
	JNZ  zero
	XORQ R12, R12
	MOVQ y+16(FP), R11
	MOVQ n+40(FP), R13

row:
	// acc += x·yᵢ
	MOVQ (R11), DX
	MOVQ x+8(FP), SI
	MOVQ t+32(FP), DI
	ADDQ $8, DI
	MOVQ n+40(FP), R10
	SHRQ $3, R10
	XORQ CX, CX

pass1:
	XORQ  R9, R9 // R9 = 0, CF = OF = 0
	MULXQ (SI), AX, R8
	ADCXQ CX, AX
	ADOXQ (DI), AX
	MOVQ  AX, (DI)
	MULXQ 8(SI), AX, CX
	ADCXQ R8, AX
	ADOXQ 8(DI), AX
	MOVQ  AX, 8(DI)
	MULXQ 16(SI), AX, R8
	ADCXQ CX, AX
	ADOXQ 16(DI), AX
	MOVQ  AX, 16(DI)
	MULXQ 24(SI), AX, CX
	ADCXQ R8, AX
	ADOXQ 24(DI), AX
	MOVQ  AX, 24(DI)
	MULXQ 32(SI), AX, R8
	ADCXQ CX, AX
	ADOXQ 32(DI), AX
	MOVQ  AX, 32(DI)
	MULXQ 40(SI), AX, CX
	ADCXQ R8, AX
	ADOXQ 40(DI), AX
	MOVQ  AX, 40(DI)
	MULXQ 48(SI), AX, R8
	ADCXQ CX, AX
	ADOXQ 48(DI), AX
	MOVQ  AX, 48(DI)
	MULXQ 56(SI), AX, CX
	ADCXQ R8, AX
	ADOXQ 56(DI), AX
	MOVQ  AX, 56(DI)
	ADCXQ R9, CX
	ADOXQ R9, CX
	ADDQ  $64, SI
	ADDQ  $64, DI
	DECQ  R10
	JNZ   pass1

	// top += carry word; BX = the carry out of top
	XORQ BX, BX
	ADDQ CX, R12
	ADCQ $0, BX

	// u = acc₀·inv; acc = (acc + u·m) / 2^64
	MOVQ  t+32(FP), DI
	MOVQ  8(DI), DX
	IMULQ inv+48(FP), DX
	ADDQ  $8, DI
	MOVQ  m+24(FP), SI
	MOVQ  n+40(FP), R10
	SHRQ  $3, R10
	XORQ  CX, CX

pass2:
	XORQ  R9, R9
	MULXQ (SI), AX, R8
	ADCXQ CX, AX
	ADOXQ (DI), AX
	MOVQ  AX, -8(DI)
	MULXQ 8(SI), AX, CX
	ADCXQ R8, AX
	ADOXQ 8(DI), AX
	MOVQ  AX, (DI)
	MULXQ 16(SI), AX, R8
	ADCXQ CX, AX
	ADOXQ 16(DI), AX
	MOVQ  AX, 8(DI)
	MULXQ 24(SI), AX, CX
	ADCXQ R8, AX
	ADOXQ 24(DI), AX
	MOVQ  AX, 16(DI)
	MULXQ 32(SI), AX, R8
	ADCXQ CX, AX
	ADOXQ 32(DI), AX
	MOVQ  AX, 24(DI)
	MULXQ 40(SI), AX, CX
	ADCXQ R8, AX
	ADOXQ 40(DI), AX
	MOVQ  AX, 32(DI)
	MULXQ 48(SI), AX, R8
	ADCXQ CX, AX
	ADOXQ 48(DI), AX
	MOVQ  AX, 40(DI)
	MULXQ 56(SI), AX, CX
	ADCXQ R8, AX
	ADOXQ 56(DI), AX
	MOVQ  AX, 48(DI)
	ADCXQ R9, CX
	ADOXQ R9, CX
	ADDQ  $64, SI
	ADDQ  $64, DI
	DECQ  R10
	JNZ   pass2

	// acc[n−1] = top + carry word; top = BX + the carry out
	ADDQ CX, R12
	ADCQ $0, BX
	MOVQ R12, -8(DI)
	MOVQ BX, R12

	ADDQ $8, R11
	DECQ R13
	JNZ  row

	// acc < 2m: z = acc − m, unless that borrows past the top limb.
	MOVQ t+32(FP), SI
	ADDQ $8, SI
	MOVQ m+24(FP), R8
	MOVQ z+0(FP), DI
	MOVQ n+40(FP), R10
	XORQ R11, R11 // index, CF = 0

sub:
	MOVQ (SI)(R11*8), AX
	SBBQ (R8)(R11*8), AX
	MOVQ AX, (DI)(R11*8)
	INCQ R11 // INC and DEC leave CF alone
	DECQ R10
	JNZ  sub
	SBBQ $0, R12
	JCC  done

	// acc < m: the subtraction was not due
	MOVQ n+40(FP), R10
	XORQ R11, R11

keep:
	MOVQ (SI)(R11*8), AX
	MOVQ AX, (DI)(R11*8)
	INCQ R11
	DECQ R10
	JNZ  keep

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

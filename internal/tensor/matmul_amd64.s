//go:build !purego

#include "textflag.h"

// Bit-exact vector lanes for matMulRange. Each ymm lane is a different
// output column, so a lane's sum is the Go body's sum for that column:
// it starts at +0 and takes, for p ascending, the product x[p]·w[p][j]
// rounded to float32 and then added and rounded again. That is a
// separate VMULPS and VADDPS per term; a fused multiply-add would skip
// the product's rounding, so this file uses none.
//
// Operand order matters only when two NaNs meet: x86 then returns the
// first source's payload. The Go body's compiled code multiplies with
// the weight as the first source and adds with the running sum as the
// first source, so the lanes do the same; the weight is loaded into a
// register first, because VMULPS takes its memory operand as the second
// source. Each body ends with VZEROUPPER, so no dirty upper ymm state
// slows the SSE code that runs after it.

// func matMulRowAVX2(d, x, w []float32, m int)
TEXT ·matMulRowAVX2(SB), NOSPLIT, $0-80
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX   // columns left, a multiple of 8
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX  // k, the terms per sum
	MOVQ w_base+48(FP), BX // w[0][j] for the next column j
	MOVQ m+72(FP), R8
	SHLQ $2, R8            // weight row stride in bytes

cols32:
	// 32 columns at a time in four accumulators, Y0–Y3.
	CMPQ   CX, $32
	JLT    cols8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   DX, R11
	TESTQ  R11, R11
	JZ     store32

terms32:
	VBROADCASTSS (R9), Y4
	VMOVUPS      (R10), Y5
	VMOVUPS      32(R10), Y6
	VMOVUPS      64(R10), Y7
	VMOVUPS      96(R10), Y8
	VMULPS       Y4, Y5, Y5 // Y5 = w·x, the weight first
	VMULPS       Y4, Y6, Y6
	VMULPS       Y4, Y7, Y7
	VMULPS       Y4, Y8, Y8
	VADDPS       Y5, Y0, Y0 // Y0 = sum + w·x, the sum first
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          terms32

store32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $32, CX
	JMP     cols32

cols8:
	// The remaining runs of 8 columns, one accumulator each.
	TESTQ  CX, CX
	JZ     done
	VXORPS Y0, Y0, Y0
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   DX, R11
	TESTQ  R11, R11
	JZ     store8

terms8:
	VBROADCASTSS (R9), Y4
	VMOVUPS      (R10), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $4, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          terms8

store8:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $8, CX
	JMP     cols8

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

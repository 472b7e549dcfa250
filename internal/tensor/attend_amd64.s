//go:build !purego

#include "textflag.h"

// Bit-exact vector lanes for the attention leaves: the score and combine
// walks under scoreRow, scoreRow2 and score4 and under combineRow,
// combineRow2 and combine4, and the exp lanes under expSum and SiLU.
// As in matmul_amd64.s, every float32 term is a separate VMULPS and
// VADDPS (no fused multiply-add), and each lane repeats the Go body's
// operations on one output element in the Go body's order. The exp
// lanes' float64 steps are the exception: they use fused multiply-adds,
// and exp32's midpoint guard keeps their float32 results exact (see
// EXP_LANES).
//
// Operand order matters only when two NaNs meet: x86 then returns the
// first source's payload. The Go bodies' compiled code is not uniform
// about it, so each term below copies the order of the Go line it
// replaces: "k first" is K·q, "w first" w·v, "v first" v·w; "sum first"
// adds the product to the running sum, "product first" the other way
// round. Loads that feed a first source go into a register, because
// VMULPS and VADDPS take their memory operand as the second source.

// Four key rows' dims [d, d+4), with key r's row at (lo)(r·stride) for
// r < 4 and (hi)((r-4)·stride) for r >= 4, transposed into Y2..Y5: Yi
// holds dim d+i of keys 0..7, one key per lane. Clobbers Y6..Y9.
#define TRANSPOSE_8x4(lo, hi, stride, stride3) \
	VMOVUPS     (lo), X2;                   \
	VINSERTF128 $1, (hi), Y2, Y2;           \
	VMOVUPS     (lo)(stride*1), X3;         \
	VINSERTF128 $1, (hi)(stride*1), Y3, Y3; \
	VMOVUPS     (lo)(stride*2), X4;         \
	VINSERTF128 $1, (hi)(stride*2), Y4, Y4; \
	VMOVUPS     (lo)(stride3*1), X5;        \
	VINSERTF128 $1, (hi)(stride3*1), Y5, Y5; \
	VUNPCKLPS   Y3, Y2, Y6;                 \
	VUNPCKHPS   Y3, Y2, Y7;                 \
	VUNPCKLPS   Y5, Y4, Y8;                 \
	VUNPCKHPS   Y5, Y4, Y9;                 \
	VSHUFPS     $0x44, Y8, Y6, Y2;          \
	VSHUFPS     $0xEE, Y8, Y6, Y3;          \
	VSHUFPS     $0x44, Y9, Y7, Y4;          \
	VSHUFPS     $0xEE, Y9, Y7, Y5

// acc += K·q[d] for the transposed dim in kd: k first, sum first.
#define SCORE_TERM(q, kd, acc, tmp) \
	VBROADCASTSS q, tmp;       \
	VMULPS       tmp, kd, tmp; \
	VADDPS       tmp, acc, acc

// func scoreBlocksAVX2(s, q, k []float32, width int, inv float32, lanes *[8]float32)
TEXT ·scoreBlocksAVX2(SB), NOSPLIT, $0-96
	MOVQ         s_base+0(FP), DI
	MOVQ         s_len+8(FP), CX  // keys left, a multiple of 8
	MOVQ         q_base+24(FP), SI
	MOVQ         q_len+32(FP), DX // head dim, a multiple of 8
	SHLQ         $2, DX
	MOVQ         k_base+48(FP), BX // key 0 of the next block, at dim 0
	MOVQ         width+72(FP), R8
	SHLQ         $2, R8            // key row stride in bytes
	LEAQ         (R8)(R8*2), R9
	VBROADCASTSS inv+80(FP), Y12
	MOVQ         lanes+88(FP), AX
	VMOVUPS      (AX), Y10

block1:
	TESTQ  CX, CX
	JZ     done1
	VXORPS Y0, Y0, Y0
	MOVQ   BX, R10
	LEAQ   (BX)(R8*4), R11
	XORQ   AX, AX

dims1:
	TRANSPOSE_8x4(R10, R11, R8, R9)
	SCORE_TERM(0(SI)(AX*1), Y2, Y0, Y6)
	SCORE_TERM(4(SI)(AX*1), Y3, Y0, Y6)
	SCORE_TERM(8(SI)(AX*1), Y4, Y0, Y6)
	SCORE_TERM(12(SI)(AX*1), Y5, Y0, Y6)
	ADDQ $16, AX
	ADDQ $16, R10
	ADDQ $16, R11
	CMPQ AX, DX
	JLT  dims1

	VMULPS  Y12, Y0, Y0 // score·inv, the score first
	VMOVUPS Y0, (DI)
	VMAXPS  Y10, Y0, Y10 // a lane takes the new score only when it is greater
	ADDQ    $32, DI
	LEAQ    (BX)(R8*8), BX
	SUBQ    $8, CX
	JMP     block1

done1:
	MOVQ    lanes+88(FP), AX
	VMOVUPS Y10, (AX)
	VZEROUPPER
	RET

// func scoreBlocks2AVX2(s0, s1, q0, q1, k []float32, width int, inv float32, lanes *[16]float32)
TEXT ·scoreBlocks2AVX2(SB), NOSPLIT, $64-144
	MOVQ         s0_base+0(FP), DI
	MOVQ         s0_len+8(FP), CX // keys left, a multiple of 8
	MOVQ         s1_base+24(FP), R12
	MOVQ         q0_base+48(FP), SI
	MOVQ         q0_len+56(FP), DX // head dim, a multiple of 8
	SHLQ         $2, DX
	MOVQ         q1_base+72(FP), R13
	MOVQ         k_base+96(FP), BX
	MOVQ         width+120(FP), R8
	SHLQ         $2, R8
	LEAQ         (R8)(R8*2), R9
	VBROADCASTSS inv+128(FP), Y12
	MOVQ         lanes+136(FP), AX
	VMOVUPS      (AX), Y10
	VMOVUPS      32(AX), Y11

block2:
	TESTQ  CX, CX
	JZ     done2
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   BX, R10
	LEAQ   (BX)(R8*4), R11
	XORQ   AX, AX

dims2:
	TRANSPOSE_8x4(R10, R11, R8, R9)
	SCORE_TERM(0(SI)(AX*1), Y2, Y0, Y6)
	SCORE_TERM(0(R13)(AX*1), Y2, Y1, Y7)
	SCORE_TERM(4(SI)(AX*1), Y3, Y0, Y6)
	SCORE_TERM(4(R13)(AX*1), Y3, Y1, Y7)
	SCORE_TERM(8(SI)(AX*1), Y4, Y0, Y6)
	SCORE_TERM(8(R13)(AX*1), Y4, Y1, Y7)
	SCORE_TERM(12(SI)(AX*1), Y5, Y0, Y6)
	SCORE_TERM(12(R13)(AX*1), Y5, Y1, Y7)
	ADDQ $16, AX
	ADDQ $16, R10
	ADDQ $16, R11
	CMPQ AX, DX
	JLT  dims2

	// dot2x4's compiled code keeps two of its eight sums in another
	// order: a3 multiplies q first and b3 adds the product first. Only
	// NaN can show the difference, so when the lanes of keys 3 and 7
	// hold a NaN, those four sums are redone in dot2x4's order.
	VCMPPS    $3, Y0, Y0, Y6 // UNORD_Q: NaN lanes
	VCMPPS    $3, Y1, Y1, Y7
	VORPS     Y7, Y6, Y6
	VMOVMSKPS Y6, AX
	TESTL     $0x88, AX
	JZ        scale2
	VMOVUPS   Y0, 0(SP)
	VMOVUPS   Y1, 32(SP)
	LEAQ      (BX)(R9*1), R10 // key 3's row
	MOVQ      $12, R11        // its lane's byte offset

fixkey2:
	VXORPS X8, X8, X8
	VXORPS X9, X9, X9
	XORQ   AX, AX

fixdims2:
	VMOVSS (SI)(AX*1), X6
	VMULSS (R10)(AX*1), X6, X6 // a3: q first
	VADDSS X6, X8, X8          // sum first
	VMOVSS (R10)(AX*1), X7
	VMULSS (R13)(AX*1), X7, X7 // b3: k first
	VADDSS X9, X7, X9          // product first
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    fixdims2
	VMOVSS X8, 0(SP)(R11*1)
	VMOVSS X9, 32(SP)(R11*1)
	LEAQ   (R10)(R8*4), R10    // key 7
	ADDQ   $16, R11
	CMPQ   R11, $28
	JLE    fixkey2
	VMOVUPS 0(SP), Y0
	VMOVUPS 32(SP), Y1

scale2:
	VMULPS  Y12, Y0, Y0
	VMULPS  Y12, Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (R12)
	VMAXPS  Y10, Y0, Y10
	VMAXPS  Y11, Y1, Y11
	ADDQ    $32, DI
	ADDQ    $32, R12
	LEAQ    (BX)(R8*8), BX
	SUBQ    $8, CX
	JMP     block2

done2:
	MOVQ    lanes+136(FP), AX
	VMOVUPS Y10, (AX)
	VMOVUPS Y11, 32(AX)
	VZEROUPPER
	RET

// The score of pair i: scaled (score first), stored at s[i]'s row (AX)
// from byte CX, and folded into lanes[8i:8i+8] at (R10). Y6 holds inv.
#define SCORE_STORE(acc, i) \
	VMULPS  Y6, acc, acc;             \
	MOVQ    (24*i)(AX), R11;          \
	VMOVUPS acc, (R11)(CX*1);         \
	VMAXPS  (32*i)(R10), acc, Y7;     \
	VMOVUPS Y7, (32*i)(R10)

// func scoreBlocks4AVX2(s, q *[4][]float32, off, n int, k []float32, width int, inv float32, lanes *[32]float32) (done int)
//
// scoreBlocks2AVX2's terms for pairs 0, 1 and 2, 3 at once: four query
// heads against each transposed block, so one transpose feeds sixteen
// SCORE_TERMs. It has no dot2x4 fix-up: a block whose lanes of keys 3
// and 7 hold a NaN in any pair is left unstored, and the body returns,
// so the caller can score it through scoreBlocks2AVX2.
TEXT ·scoreBlocks4AVX2(SB), NOSPLIT, $0-88
	MOVQ q+8(FP), AX
	MOVQ 0(AX), SI   // q[0]
	MOVQ 8(AX), DX   // head dim, a multiple of 8
	SHLQ $2, DX
	MOVQ 24(AX), DI  // q[1]
	MOVQ 48(AX), R12 // q[2]
	MOVQ 72(AX), R13 // q[3]
	MOVQ off+16(FP), CX
	SHLQ $2, CX      // the next block's byte offset in each score row
	MOVQ n+24(FP), R14
	SHLQ $2, R14
	ADDQ CX, R14     // where the n keys end
	MOVQ k_base+32(FP), BX
	MOVQ width+56(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9

block4:
	CMPQ   CX, R14
	JGE    done4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	MOVQ   BX, R10
	LEAQ   (BX)(R8*4), R11
	XORQ   AX, AX

dims4:
	TRANSPOSE_8x4(R10, R11, R8, R9)
	SCORE_TERM(0(SI)(AX*1), Y2, Y0, Y6)
	SCORE_TERM(0(DI)(AX*1), Y2, Y1, Y7)
	SCORE_TERM(0(R12)(AX*1), Y2, Y10, Y8)
	SCORE_TERM(0(R13)(AX*1), Y2, Y11, Y9)
	SCORE_TERM(4(SI)(AX*1), Y3, Y0, Y6)
	SCORE_TERM(4(DI)(AX*1), Y3, Y1, Y7)
	SCORE_TERM(4(R12)(AX*1), Y3, Y10, Y8)
	SCORE_TERM(4(R13)(AX*1), Y3, Y11, Y9)
	SCORE_TERM(8(SI)(AX*1), Y4, Y0, Y6)
	SCORE_TERM(8(DI)(AX*1), Y4, Y1, Y7)
	SCORE_TERM(8(R12)(AX*1), Y4, Y10, Y8)
	SCORE_TERM(8(R13)(AX*1), Y4, Y11, Y9)
	SCORE_TERM(12(SI)(AX*1), Y5, Y0, Y6)
	SCORE_TERM(12(DI)(AX*1), Y5, Y1, Y7)
	SCORE_TERM(12(R12)(AX*1), Y5, Y10, Y8)
	SCORE_TERM(12(R13)(AX*1), Y5, Y11, Y9)
	ADDQ $16, AX
	ADDQ $16, R10
	ADDQ $16, R11
	CMPQ AX, DX
	JLT  dims4

	VCMPPS    $3, Y0, Y0, Y6 // UNORD_Q: NaN lanes
	VCMPPS    $3, Y1, Y1, Y7
	VCMPPS    $3, Y10, Y10, Y8
	VCMPPS    $3, Y11, Y11, Y9
	VORPS     Y7, Y6, Y6
	VORPS     Y9, Y8, Y8
	VORPS     Y8, Y6, Y6
	VMOVMSKPS Y6, AX
	TESTL     $0x88, AX
	JNZ       done4

	VBROADCASTSS inv+64(FP), Y6
	MOVQ         s+0(FP), AX
	MOVQ         lanes+72(FP), R10
	SCORE_STORE(Y0, 0)
	SCORE_STORE(Y1, 1)
	SCORE_STORE(Y10, 2)
	SCORE_STORE(Y11, 3)
	ADDQ         $32, CX
	LEAQ         (BX)(R8*8), BX
	JMP          block4

done4:
	MOVQ off+16(FP), AX
	SHLQ $2, AX
	SUBQ AX, CX
	SHRQ $2, CX
	MOVQ CX, done+80(FP)
	VZEROUPPER
	RET

// The combine bodies take keys in groups of four, as the Go bodies do. A
// group whose weights are all nonzero runs the Go tile's terms (the
// tile's operand orders); a group with a zero weight runs axpy's for
// each key, skipping the zero ones. The weights w = t·inv (t first) sit
// in the frame so each can be broadcast from memory.

// func combineAVX2(o, t, v []float32, width int, inv float32)
TEXT ·combineAVX2(SB), NOSPLIT, $16-84
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), DX // head dim, a multiple of 8
	SHLQ $2, DX
	MOVQ t_base+24(FP), R9
	MOVQ t_len+32(FP), CX // keys left, a multiple of 4
	MOVQ v_base+48(FP), BX
	MOVQ width+72(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R11

group1:
	CMPQ         CX, $4
	JLT          end1
	VBROADCASTSS inv+80(FP), X12
	VMOVUPS      (R9), X0
	VMULPS       X12, X0, X0 // w = t·inv, t first
	VMOVUPS      X0, 0(SP)
	VXORPS       X13, X13, X13
	VCMPPS       $0, X13, X0, X1 // w == 0, with -0 equal and NaN not
	VMOVMSKPS    X1, AX
	TESTL        AX, AX
	JNZ          skip1

	// combineRow's tile: v first; product first but for the third key.
	VBROADCASTSS 0(SP), Y4
	VBROADCASTSS 4(SP), Y5
	VBROADCASTSS 8(SP), Y6
	VBROADCASTSS 12(SP), Y7
	XORQ         AX, AX

tile1:
	LEAQ    (BX)(AX*1), R10
	VMOVUPS (R10), Y0
	VMOVUPS (R10)(R8*1), Y1
	VMOVUPS (R10)(R8*2), Y2
	VMOVUPS (R10)(R11*1), Y3
	VMOVUPS (DI)(AX*1), Y8
	VMULPS  Y4, Y0, Y9
	VADDPS  Y8, Y9, Y8   // product first
	VMULPS  Y5, Y1, Y9
	VADDPS  Y8, Y9, Y8   // product first
	VMULPS  Y6, Y2, Y9
	VADDPS  Y9, Y8, Y8   // sum first
	VMULPS  Y7, Y3, Y9
	VADDPS  Y8, Y9, Y8   // product first
	VMOVUPS Y8, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     tile1
	JMP     next1

skip1:
	// axpy for each key of the group with w != 0.
	XORQ R12, R12

skipkey1:
	VMOVSS       0(SP)(R12*4), X0
	VUCOMISS     X13, X0
	JNE          axpy1
	JPS          axpy1   // NaN is not 0
	JMP          nextkey1

axpy1:
	VBROADCASTSS X0, Y0
	MOVQ         R12, R10
	IMULQ        R8, R10
	ADDQ         BX, R10
	MOVQ         DI, R13
	LEAQ         (DI)(DX*1), AX

axpyrow1:
	// o[d:d+8] += v[d:d+8]·w: v first, product first (axpy).
	VMOVUPS (R10), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (R13), Y1, Y1
	VMOVUPS Y1, (R13)
	ADDQ    $32, R10
	ADDQ    $32, R13
	CMPQ    R13, AX
	JLT     axpyrow1

nextkey1:
	INCQ R12
	CMPQ R12, $4
	JLT  skipkey1

next1:
	ADDQ $16, R9
	LEAQ (BX)(R8*4), BX
	SUBQ $4, CX
	JMP  group1

end1:
	VZEROUPPER
	RET

// func combine2AVX2(o0, o1, t0, t1, v []float32, width int, inv0, inv1 float32)
TEXT ·combine2AVX2(SB), NOSPLIT, $32-136
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), DX // head dim, a multiple of 8
	SHLQ $2, DX
	MOVQ o1_base+24(FP), SI
	MOVQ t0_base+48(FP), R9
	MOVQ t0_len+56(FP), CX // keys left, a multiple of 4
	MOVQ t1_base+72(FP), R12
	MOVQ v_base+96(FP), BX
	MOVQ width+120(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R11

group2:
	CMPQ         CX, $4
	JLT          end2
	VBROADCASTSS inv0+128(FP), X12
	VBROADCASTSS inv1+132(FP), X13
	VMOVUPS      (R9), X0
	VMULPS       X12, X0, X0 // w = t0·inv0, t first
	VMOVUPS      (R12), X1
	VMULPS       X13, X1, X1 // u = t1·inv1
	VMOVUPS      X0, 0(SP)
	VMOVUPS      X1, 16(SP)
	VXORPS       X13, X13, X13
	VCMPPS       $0, X13, X0, X2
	VCMPPS       $0, X13, X1, X3
	VORPS        X3, X2, X2
	VMOVMSKPS    X2, AX
	TESTL        AX, AX
	JNZ          skip2

	// axpy2x4: o0's terms w first, product first but for the second key;
	// o1's v first, product first.
	VBROADCASTSS 0(SP), Y4
	VBROADCASTSS 4(SP), Y5
	VBROADCASTSS 8(SP), Y6
	VBROADCASTSS 12(SP), Y7
	VBROADCASTSS 16(SP), Y8
	VBROADCASTSS 20(SP), Y9
	VBROADCASTSS 24(SP), Y10
	VBROADCASTSS 28(SP), Y11
	XORQ         AX, AX

tile2:
	LEAQ    (BX)(AX*1), R10
	VMOVUPS (R10), Y0
	VMOVUPS (R10)(R8*1), Y1
	VMOVUPS (R10)(R8*2), Y2
	VMOVUPS (R10)(R11*1), Y3
	VMOVUPS (DI)(AX*1), Y12
	VMULPS  Y0, Y4, Y13
	VADDPS  Y12, Y13, Y12 // product first
	VMULPS  Y1, Y5, Y13
	VADDPS  Y13, Y12, Y12 // sum first
	VMULPS  Y2, Y6, Y13
	VADDPS  Y12, Y13, Y12 // product first
	VMULPS  Y3, Y7, Y13
	VADDPS  Y12, Y13, Y12 // product first
	VMOVUPS Y12, (DI)(AX*1)
	VMOVUPS (SI)(AX*1), Y14
	VMULPS  Y8, Y0, Y15
	VADDPS  Y14, Y15, Y14
	VMULPS  Y9, Y1, Y15
	VADDPS  Y14, Y15, Y14
	VMULPS  Y10, Y2, Y15
	VADDPS  Y14, Y15, Y14
	VMULPS  Y11, Y3, Y15
	VADDPS  Y14, Y15, Y14
	VMOVUPS Y14, (SI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     tile2
	JMP     next2

skip2:
	// axpy for each of o0's keys with w != 0, then each of o1's.
	XORQ R13, R13

skipkey2:
	VMOVSS   0(SP)(R13*4), X0
	VUCOMISS X13, X0
	JNE      axpy2
	JPS      axpy2
	JMP      nextkey2

axpy2:
	VBROADCASTSS X0, Y0
	MOVQ         R13, R10
	ANDQ         $3, R10
	IMULQ        R8, R10
	ADDQ         BX, R10
	MOVQ         DI, R11
	CMPQ         R13, $4
	CMOVQGE      SI, R11
	LEAQ         (R11)(DX*1), AX

axpyrow2:
	VMOVUPS (R10), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (R11), Y1, Y1
	VMOVUPS Y1, (R11)
	ADDQ    $32, R10
	ADDQ    $32, R11
	CMPQ    R11, AX
	JLT     axpyrow2

nextkey2:
	INCQ R13
	CMPQ R13, $8
	JLT  skipkey2
	LEAQ (R8)(R8*2), R11

next2:
	ADDQ $16, R9
	ADDQ $16, R12
	LEAQ (BX)(R8*4), BX
	SUBQ $4, CX
	JMP  group2

end2:
	VZEROUPPER
	RET

// One key's terms for four pairs in combine4AVX2, on the V chunk in v
// (eight head-dim elements): the weight of pair i and key k sits at
// 64+16i+4k(SP) and pair i's sum in the accumulator ai. Pairs 0 and 1
// are combine2AVX2's o0 and o1, and so are pairs 2 and 3: the even
// pairs w first, product first but for key 1 (add = sum first there);
// the odd pairs v first, product first.
#define COMBINE4_EVEN(w, v, acc) \
	VBROADCASTSS w, Y10;   \
	VMULPS       v, Y10, Y11; \
	VADDPS       acc, Y11, acc

#define COMBINE4_EVEN_SUM(w, v, acc) \
	VBROADCASTSS w, Y10;   \
	VMULPS       v, Y10, Y11; \
	VADDPS       Y11, acc, acc

#define COMBINE4_ODD(w, v, acc) \
	VBROADCASTSS w, Y10;   \
	VMULPS       Y10, v, Y11; \
	VADDPS       acc, Y11, acc

// Key k (0..3) of a group for head dim 8: its V row at (R10), Y0..Y3
// the four sums.
#define COMBINE4_KEY8(k, EVEN) \
	VMOVUPS (R10), Y8;                  \
	EVEN(64+4*k(SP), Y8, Y0);           \
	COMBINE4_ODD(80+4*k(SP), Y8, Y1);   \
	EVEN(96+4*k(SP), Y8, Y2);           \
	COMBINE4_ODD(112+4*k(SP), Y8, Y3)

// Key k of a group for head dim 16: Y0..Y3 the sums' low halves, Y4..Y7
// their high halves.
#define COMBINE4_KEY16(k, EVEN) \
	VMOVUPS (R10), Y8;                  \
	VMOVUPS 32(R10), Y9;                \
	EVEN(64+4*k(SP), Y8, Y0);           \
	EVEN(64+4*k(SP), Y9, Y4);           \
	COMBINE4_ODD(80+4*k(SP), Y8, Y1);   \
	COMBINE4_ODD(80+4*k(SP), Y9, Y5);   \
	EVEN(96+4*k(SP), Y8, Y2);           \
	EVEN(96+4*k(SP), Y9, Y6);           \
	COMBINE4_ODD(112+4*k(SP), Y8, Y3);  \
	COMBINE4_ODD(112+4*k(SP), Y9, Y7)

// The weights of pair i for the group at byte CX of its score row:
// w = t·inv (t first) into 64+16i(SP), and their w == 0 lanes ORed into
// X14. AX holds t, the pair's broadcast inv sits at 16i(SP).
#define COMBINE4_WEIGHTS(i) \
	MOVQ      (24*i)(AX), R11;      \
	VMOVUPS   (R11)(CX*1), X8;      \
	VMULPS    (16*i)(SP), X8, X8;   \
	VMOVUPS   X8, (64+16*i)(SP);    \
	VCMPPS    $0, X13, X8, X9;      \
	VORPS     X9, X14, X14

// func combine4AVX2(o, t *[4][]float32, off, n int, v []float32, width int, inv *[4]float32) (done int)
//
// combine2AVX2's tile for pairs 0, 1 and 2, 3 at once, over the groups of
// four keys starting at t[i][off], for head dims 8 and 16: the four sums
// stay in registers across the keys, loaded from o at the start and
// stored at the end, and each V row is loaded once for all four. A group
// with a zero weight in any pair ends the walk before its terms; the
// caller runs it through combine2AVX2, which takes axpy's path for it.
TEXT ·combine4AVX2(SB), NOSPLIT, $128-80
	MOVQ         inv+64(FP), AX
	VBROADCASTSS 0(AX), X8
	VMOVUPS      X8, 0(SP)
	VBROADCASTSS 4(AX), X8
	VMOVUPS      X8, 16(SP)
	VBROADCASTSS 8(AX), X8
	VMOVUPS      X8, 32(SP)
	VBROADCASTSS 12(AX), X8
	VMOVUPS      X8, 48(SP)
	MOVQ         o+0(FP), DI
	MOVQ         8(DI), DX // head dim: 8 or 16
	MOVQ         0(DI), SI
	VMOVUPS      (SI), Y0
	MOVQ         24(DI), SI
	VMOVUPS      (SI), Y1
	MOVQ         48(DI), SI
	VMOVUPS      (SI), Y2
	MOVQ         72(DI), SI
	VMOVUPS      (SI), Y3
	CMPQ         DX, $16
	JNE          start4
	MOVQ         0(DI), SI
	VMOVUPS      32(SI), Y4
	MOVQ         24(DI), SI
	VMOVUPS      32(SI), Y5
	MOVQ         48(DI), SI
	VMOVUPS      32(SI), Y6
	MOVQ         72(DI), SI
	VMOVUPS      32(SI), Y7

start4:
	MOVQ   off+16(FP), CX
	SHLQ   $2, CX // the next group's byte offset in each score row
	MOVQ   n+24(FP), R14
	SHLQ   $2, R14
	ADDQ   CX, R14
	MOVQ   t+8(FP), AX
	MOVQ   v_base+32(FP), BX
	MOVQ   width+56(FP), R8
	SHLQ   $2, R8
	VXORPS X13, X13, X13

group4:
	CMPQ   CX, R14
	JGE    end4
	VXORPS X14, X14, X14
	COMBINE4_WEIGHTS(0)
	COMBINE4_WEIGHTS(1)
	COMBINE4_WEIGHTS(2)
	COMBINE4_WEIGHTS(3)
	VMOVMSKPS X14, R11
	TESTL     R11, R11
	JNZ       end4
	MOVQ      BX, R10
	CMPQ      DX, $16
	JEQ       tile16

	COMBINE4_KEY8(0, COMBINE4_EVEN)
	ADDQ R8, R10
	COMBINE4_KEY8(1, COMBINE4_EVEN_SUM)
	ADDQ R8, R10
	COMBINE4_KEY8(2, COMBINE4_EVEN)
	ADDQ R8, R10
	COMBINE4_KEY8(3, COMBINE4_EVEN)
	JMP  next4

tile16:
	COMBINE4_KEY16(0, COMBINE4_EVEN)
	ADDQ R8, R10
	COMBINE4_KEY16(1, COMBINE4_EVEN_SUM)
	ADDQ R8, R10
	COMBINE4_KEY16(2, COMBINE4_EVEN)
	ADDQ R8, R10
	COMBINE4_KEY16(3, COMBINE4_EVEN)

next4:
	ADDQ $16, CX
	LEAQ (BX)(R8*4), BX
	JMP  group4

end4:
	MOVQ    o+0(FP), DI
	MOVQ    0(DI), SI
	VMOVUPS Y0, (SI)
	MOVQ    24(DI), SI
	VMOVUPS Y1, (SI)
	MOVQ    48(DI), SI
	VMOVUPS Y2, (SI)
	MOVQ    72(DI), SI
	VMOVUPS Y3, (SI)
	CMPQ    DX, $16
	JNE     ret4
	MOVQ    0(DI), SI
	VMOVUPS Y4, 32(SI)
	MOVQ    24(DI), SI
	VMOVUPS Y5, 32(SI)
	MOVQ    48(DI), SI
	VMOVUPS Y6, 32(SI)
	MOVQ    72(DI), SI
	VMOVUPS Y7, 32(SI)

ret4:
	MOVQ off+16(FP), AX
	SHLQ $2, AX
	SUBQ AX, CX
	SHRQ $2, CX
	MOVQ CX, done+72(FP)
	VZEROUPPER
	RET

// EXP_LANES' constants: offsets into expLaneConsts (attend_amd64.go),
// where each is repeated across 32 bytes so an instruction can take it
// as a ymm (or, from its first 16 bytes, an xmm) memory operand.
#define EXP_INVSTEP 0
#define EXP_SHIFTER 32
#define EXP_STEPHI 64
#define EXP_STEPLO 96
#define EXP_HALF 128
#define EXP_SIXTH 160
#define EXP_INDEX 192
#define EXP_DROPPED 224
#define EXP_GUARDLO 256
#define EXP_GUARDW 288
#define EXP_MIN 320
#define EXP_MAX 352
#define EXP_SIGN 384
#define EXP_ONE 416

// Loads what EXP_LANES reads besides its memory operands: R8 =
// expLaneConsts, R9 = exp2Table, X13 and X12 = expMin and expMax.
#define EXP_SETUP \
	LEAQ    ·expLaneConsts(SB), R8; \
	LEAQ    ·exp2Table(SB), R9;     \
	VMOVUPS EXP_MIN(R8), X13;       \
	VMOVUPS EXP_MAX(R8), X12

// X5 = exp32 of the four float32 in X0: exp32Fast's steps in four
// float64 lanes, one lane per element, with fused multiply-adds where a
// product feeds a sum. It jumps to fail, with nothing stored, when an
// input lies outside (expMin, expMax) (NaN and ±Inf included; the
// compares are GT_OQ and LT_OQ, false on NaN) or when the midpoint guard
// flags a result: a lane's 29 dropped bits minus (expMid - expGuard) lie
// in [0, 2·expGuard]. It tests that as exp32Fast's unsigned compare
// does, on (b - (expMid - expGuard)) masked to 29 bits: where the dropped
// bits lie below expMid - expGuard, that wraps to at least 2^28 +
// expGuard, above the window, so one signed compare suffices. Each fused step rounds once where exp32Fast rounds
// twice, so a lane can differ from exp32Fast in its last float64 bits
// and in which results the guard flags, but stays inside the guard's
// error bound (see expGuard): every result it lets through is exp32's.
// In exp32Fast's terms: xd is Y0 until the two VFNMADD231PD turn it into
// r, t is Y1 (one VFMADD231PD: xd·expInvStep + expShifter), nf Y2, s Y6,
// the cubic's bracket Y4 (0.5 + r·(1/6), then r·r·that + r, then s·that
// + s, one VFMADD213PD each) and b Y5. Clobbers Y0..Y6 and DX.
#define EXP_LANES(fail) \
	VCMPPS       $0x1e, X13, X0, X1;          \
	VCMPPS       $0x11, X12, X0, X2;          \
	VANDPS       X2, X1, X1;                  \
	VMOVMSKPS    X1, DX;                      \
	CMPL         DX, $15;                     \
	JNE          fail;                        \
	VCVTPS2PD    X0, Y0;                      \
	VMOVUPD      EXP_SHIFTER(R8), Y1;         \
	VFMADD231PD  EXP_INVSTEP(R8), Y0, Y1;     \
	VSUBPD       EXP_SHIFTER(R8), Y1, Y2;     \
	VFNMADD231PD EXP_STEPHI(R8), Y2, Y0;      \
	VFNMADD231PD EXP_STEPLO(R8), Y2, Y0;      \
	VPAND        EXP_INDEX(R8), Y1, Y4;       \
	VPCMPEQQ     Y5, Y5, Y5;                  \
	VXORPD       Y6, Y6, Y6;                  \
	VGATHERQPD   Y5, (R9)(Y4*8), Y6;          \
	VMOVUPD      EXP_SIXTH(R8), Y4;           \
	VFMADD213PD  EXP_HALF(R8), Y0, Y4;        \
	VMULPD       Y0, Y0, Y3;                  \
	VFMADD213PD  Y0, Y3, Y4;                  \
	VFMADD213PD  Y6, Y6, Y4;                  \
	VPSRLQ       $8, Y1, Y1;                  \
	VPSLLQ       $52, Y1, Y1;                 \
	VPADDQ       Y1, Y4, Y5;                  \
	VPSUBQ       EXP_GUARDLO(R8), Y5, Y1;     \
	VPAND        EXP_DROPPED(R8), Y1, Y1;     \
	VPCMPGTQ     EXP_GUARDW(R8), Y1, Y1;      \
	VMOVMSKPD    Y1, DX;                      \
	CMPL         DX, $15;                     \
	JNE          fail;                        \
	VCVTPD2PSY   Y5, X5

// func expSumAVX2(x []float32, m, sum float32) (n int, s float32)
//
// EXP_LANES over x's groups of four from the start, each element x - m
// (x first). It stops before the first group EXP_LANES hands back and
// before a tail of fewer than four, and returns how many elements it
// overwrote. The sum is exp32's: one VADDSS per element, in order, the
// sum first.
TEXT ·expSumAVX2(SB), NOSPLIT, $0-44
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	LEAQ         (SI)(CX*4), R10 // x's end
	MOVQ         SI, DI          // the next group
	VBROADCASTSS m+24(FP), X15
	VMOVSS       sum+28(FP), X14
	EXP_SETUP

	// DI walks the groups so the sum's loads take no index register: an
	// indexed memory operand would split each VADDSS into two uops.
group:
	LEAQ    16(DI), DX
	CMPQ    DX, R10
	JGT     done
	VMOVUPS (DI), X0
	VSUBPS  X15, X0, X0 // x - m, x first
	EXP_LANES(done)
	VMOVUPS X5, (DI)
	VADDSS  0(DI), X14, X14
	VADDSS  4(DI), X14, X14
	VADDSS  8(DI), X14, X14
	VADDSS  12(DI), X14, X14
	ADDQ    $16, DI
	JMP     group

done:
	SUBQ   SI, DI
	SHRQ   $2, DI
	MOVQ   DI, n+32(FP)
	VMOVSS X14, s+40(FP)
	VZEROUPPER
	RET

// func siluAVX2(x []float32) (n int)
//
// SiLU's loop over x's groups of four from the start: e = EXP_LANES of
// -v (the sign bit flipped, as Go's negation does), then v / (1 + e) in
// float32 lanes. VADDPS and VDIVPS round as Go's float32 + and / do, and
// EXP_LANES takes only finite inputs, so e is finite and positive and no
// NaN can meet another. It stops where expSumAVX2 would and returns how
// many elements it overwrote.
TEXT ·siluAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ AX, AX
	EXP_SETUP

silu:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     silud
	VMOVUPS (SI)(AX*4), X8 // v
	VXORPS  EXP_SIGN(R8), X8, X0 // -v
	EXP_LANES(silud)
	VADDPS  EXP_ONE(R8), X5, X5  // 1 + e
	VDIVPS  X5, X8, X5     // v / (1 + e)
	VMOVUPS X5, (SI)(AX*4)
	ADDQ    $4, AX
	JMP     silu

silud:
	MOVQ AX, n+24(FP)
	VZEROUPPER
	RET

#include "textflag.h"

// AVX2 forms of the kernels in kernels.go. A lane of a vector register holds
// one of the sums (or elements) the portable loops keep apart; no instruction
// here adds across lanes, and every multiply-add is a VMULPD followed by a
// VADDPD/VSUBPD — never an FMA — so each lane rounds twice, exactly where the
// portable loop does. Loads and stores are unaligned (VMOVUPD): operands are
// slices of larger matrices and start wherever the caller's indices fall.
// Every routine ends in VZEROUPPER, so the SSE code the Go compiler emits
// around the call pays no state-transition penalty.

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func tmulvecAVX2(out, m, v *float64, rows, stride, cols int)
//
// Column blocks of 32 (eight accumulators), then at most one of 16 (four).
// Within a block the rows go by in order: broadcast v[i], multiply it into
// the row's 32 entries, add to the accumulators. A v[i] of either zero is
// skipped — its bit pattern shifted left by one is zero exactly then, which a
// NaN's never is.
TEXT ·tmulvecAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ stride+32(FP), R9
	MOVQ cols+40(FP), R10
	SHLQ $3, R9 // row stride in bytes

tmul32:
	CMPQ   R10, $32
	JLT    tmul16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, AX // &m[i][block]
	MOVQ   DX, BX // &v[i]
	MOVQ   R8, CX // rows left

tmul32row:
	MOVQ         (BX), R11
	SHLQ         $1, R11
	JZ           tmul32next
	VBROADCASTSD (BX), Y8
	VMULPD       (AX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(AX), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(AX), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(AX), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(AX), Y8, Y9
	VADDPD       Y9, Y4, Y4
	VMULPD       160(AX), Y8, Y10
	VADDPD       Y10, Y5, Y5
	VMULPD       192(AX), Y8, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       224(AX), Y8, Y12
	VADDPD       Y12, Y7, Y7

tmul32next:
	ADDQ    R9, AX
	ADDQ    $8, BX
	DECQ    CX
	JNZ     tmul32row
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, R10
	JMP     tmul32

tmul16:
	CMPQ   R10, $16
	JLT    tmuldone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R8, CX

tmul16row:
	MOVQ         (BX), R11
	SHLQ         $1, R11
	JZ           tmul16next
	VBROADCASTSD (BX), Y8
	VMULPD       (AX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(AX), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(AX), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(AX), Y8, Y12
	VADDPD       Y12, Y3, Y3

tmul16next:
	ADDQ    R9, AX
	ADDQ    $8, BX
	DECQ    CX
	JNZ     tmul16row
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)

tmuldone:
	VZEROUPPER
	RET

// func sqDistColsAVX2(out, t, q *float64, rows, stride, cols int)
//
// Sixteen columns — four accumulators — per pass over q: broadcast q[j],
// subtract it from row j's sixteen entries, square, add.
TEXT ·sqDistColsAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ t+8(FP), SI
	MOVQ q+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ stride+32(FP), R9
	MOVQ cols+40(FP), R10
	SHLQ $3, R9

sqd16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX // &t[j][block]
	MOVQ   DX, BX // &q[j]
	MOVQ   R8, CX // rows left

sqd16row:
	VBROADCASTSD (BX), Y4
	VMOVUPD      (AX), Y5
	VMOVUPD      32(AX), Y6
	VMOVUPD      64(AX), Y7
	VMOVUPD      96(AX), Y8
	VSUBPD       Y4, Y5, Y5
	VSUBPD       Y4, Y6, Y6
	VSUBPD       Y4, Y7, Y7
	VSUBPD       Y4, Y8, Y8
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VMULPD       Y8, Y8, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         R9, AX
	ADDQ         $8, BX
	DECQ         CX
	JNZ          sqd16row
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	SUBQ         $16, R10
	JNZ          sqd16
	VZEROUPPER
	RET

// func rotateAVX2(lo, hi *float64, n int, c, s float64)
//
// hi ← s·lo + c·hi, lo ← c·lo − s·hi, four elements per instruction.
TEXT ·rotateAVX2(SB), NOSPLIT, $0-40
	MOVQ         lo+0(FP), DI
	MOVQ         hi+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD c+24(FP), Y6
	VBROADCASTSD s+32(FP), Y7

rot4:
	VMOVUPD (DI), Y0     // x
	VMOVUPD (SI), Y1     // h
	VMULPD  Y0, Y7, Y2   // s·x
	VMULPD  Y1, Y6, Y3   // c·h
	VADDPD  Y3, Y2, Y2
	VMULPD  Y0, Y6, Y4   // c·x
	VMULPD  Y1, Y7, Y5   // s·h
	VSUBPD  Y5, Y4, Y4
	VMOVUPD Y2, (SI)
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     rot4
	VZEROUPPER
	RET

// func subScaledAVX2(t, d *float64, n int, a float64)
//
// t ← t − a·d.
TEXT ·subScaledAVX2(SB), NOSPLIT, $0-32
	MOVQ         t+0(FP), DI
	MOVQ         d+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y7

subs4:
	VMULPD  (SI), Y7, Y1 // a·d
	VMOVUPD (DI), Y0
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     subs4
	VZEROUPPER
	RET

// func subRank2AVX2(t, e, d *float64, n int, a, b float64)
//
// t ← t − (a·e + b·d).
TEXT ·subRank2AVX2(SB), NOSPLIT, $0-48
	MOVQ         t+0(FP), DI
	MOVQ         e+8(FP), SI
	MOVQ         d+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD a+32(FP), Y6
	VBROADCASTSD b+40(FP), Y7

subr4:
	VMULPD  (SI), Y6, Y1 // a·e
	VMULPD  (DX), Y7, Y2 // b·d
	VADDPD  Y2, Y1, Y1
	VMOVUPD (DI), Y0
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JNZ     subr4
	VZEROUPPER
	RET

// func sweepAVX2(v *float64, stride int, cs *float64, rots int)
//
// Row rots of the 16-column strip starts in Y0–Y3. Each rotation loads the
// row below it (x), stores the rotated upper row, s·x + c·h, and keeps the
// rotated lower row, c·x − s·h, in Y0–Y3 as the next rotation's upper row h;
// the last one is stored into row 0. The four vectors of a row alternate
// between two sets of temporaries.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-32
	MOVQ    v+0(FP), DI
	MOVQ    stride+8(FP), R9
	MOVQ    cs+16(FP), SI
	MOVQ    rots+24(FP), CX
	SHLQ    $3, R9        // row stride in bytes
	MOVQ    CX, AX
	IMULQ   R9, AX
	ADDQ    AX, DI        // &row rots
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3

sweeprot:
	VBROADCASTSD (SI), Y4  // c
	VBROADCASTSD 8(SI), Y5 // s
	MOVQ         DI, DX    // upper row
	SUBQ         R9, DI    // lower row
	VMOVUPD      (DI), Y6  // x
	VMULPD       Y6, Y5, Y7
	VMULPD       Y0, Y4, Y8
	VADDPD       Y8, Y7, Y7
	VMOVUPD      Y7, (DX)
	VMULPD       Y6, Y4, Y9
	VMULPD       Y0, Y5, Y10
	VSUBPD       Y10, Y9, Y0
	VMOVUPD      32(DI), Y11
	VMULPD       Y11, Y5, Y12
	VMULPD       Y1, Y4, Y13
	VADDPD       Y13, Y12, Y12
	VMOVUPD      Y12, 32(DX)
	VMULPD       Y11, Y4, Y14
	VMULPD       Y1, Y5, Y15
	VSUBPD       Y15, Y14, Y1
	VMOVUPD      64(DI), Y6
	VMULPD       Y6, Y5, Y7
	VMULPD       Y2, Y4, Y8
	VADDPD       Y8, Y7, Y7
	VMOVUPD      Y7, 64(DX)
	VMULPD       Y6, Y4, Y9
	VMULPD       Y2, Y5, Y10
	VSUBPD       Y10, Y9, Y2
	VMOVUPD      96(DI), Y11
	VMULPD       Y11, Y5, Y12
	VMULPD       Y3, Y4, Y13
	VADDPD       Y13, Y12, Y12
	VMOVUPD      Y12, 96(DX)
	VMULPD       Y11, Y4, Y14
	VMULPD       Y3, Y5, Y15
	VSUBPD       Y15, Y14, Y3
	ADDQ         $16, SI
	DECQ         CX
	JNZ          sweeprot
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	VZEROUPPER
	RET

// func subOuterAVX2(b, gv, d *float64, rows int)
//
// gv's 16 entries stay in Y0–Y3; row k of b loses d[k]·gv.
TEXT ·subOuterAVX2(SB), NOSPLIT, $0-32
	MOVQ    b+0(FP), DI
	MOVQ    gv+8(FP), SI
	MOVQ    d+16(FP), DX
	MOVQ    rows+24(FP), CX
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3

outer16:
	VBROADCASTSD (DX), Y4
	VMULPD       Y0, Y4, Y5
	VMOVUPD      (DI), Y6
	VSUBPD       Y5, Y6, Y6
	VMOVUPD      Y6, (DI)
	VMULPD       Y1, Y4, Y7
	VMOVUPD      32(DI), Y8
	VSUBPD       Y7, Y8, Y8
	VMOVUPD      Y8, 32(DI)
	VMULPD       Y2, Y4, Y9
	VMOVUPD      64(DI), Y10
	VSUBPD       Y9, Y10, Y10
	VMOVUPD      Y10, 64(DI)
	VMULPD       Y3, Y4, Y11
	VMOVUPD      96(DI), Y12
	VSUBPD       Y11, Y12, Y12
	VMOVUPD      Y12, 96(DI)
	ADDQ         $128, DI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          outer16
	VZEROUPPER
	RET

// func addScaledAVX2(y, x *float64, n int, a float64)
//
// y ← y + a·x.
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y7

adds4:
	VMULPD  (SI), Y7, Y1 // a·x
	VMOVUPD (DI), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     adds4
	VZEROUPPER
	RET
